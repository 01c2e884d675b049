"""One verification round, message by message.

A monitor checks who node 1 is connected to without trusting node 1's word
for it: it hands node 1 a marker carrying a fresh nonce, node 1 forwards it
to its outbound peers, and each peer that recognizes node 1 as an inbound
neighbor bounces the marker back to the monitor.  Whoever echoes the right
nonce is a verified peer.
"""
from topomon.engine import substream
from topomon.monitor import Monitor
from topomon.protocol import NodeState

MON = 100

# Overlay under inspection: 1 -> 2, 1 -> 3, and 4 -> 1.
out = {1: {2, 3}, 2: set(), 3: set(), 4: {1}}
inb = {1: {4}, 2: {1}, 3: {1}, 4: set()}
nodes = {i: NodeState(i, {MON}, outbound=out[i], inbound=inb[i]) for i in out}

mon = Monitor(MON, mode="fixed")
for i in nodes:
    mon.node_discovered(i)

rng = substream(7, "walkthrough")
marker = mon.start_round(1, rng)
print(f"monitor opens a round on node 1, nonce {marker.value:#018x}")

fanout = nodes[1].handle_marker(MON, marker)
print(f"node 1 forwards the marker to its outbound peers: {[s.to for s in fanout]}")

for send in fanout:
    bounce = nodes[send.to].handle_marker(1, send.marker)
    for b in bounce:
        print(f"  node {send.to} sees node 1 in its inbound set, relays to {b.to}")
        accepted = mon.receive_marker(send.to, b.marker)
        print(f"  monitor checks the nonce: {'accepted' if accepted else 'rejected'}")

# node 4 only points AT node 1; it never saw the marker and stays silent.
freq_before = mon.freq[1]
msg, delay_ms = mon.close_round(1, rng)
print(f"round closes; verified outbound row for node 1: {sorted(mon.outbound_row(1))}")
# the row went from empty to {2, 3}: two changes shorten the scan period
print(f"scan frequency for node 1: {freq_before} s -> {mon.freq[1]} s, next round in {delay_ms} ms")

print(f"confirmation sent back to node 1 lists: {sorted(msg.verified_peers)}")
print("(4 is absent: its edge 4->1 gets verified in node 4's own round)")
