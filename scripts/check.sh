#!/bin/sh
# Static and dynamic checks for the whole module: formatting, vet, and
# the full test suite under the race detector. The race pass is what
# protects the parallel proof-verification pipeline — run this before
# sending any change that touches internal/core or internal/p2p.
#
# Usage: scripts/check.sh
set -e
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test -race =="
# Includes the statusdb randomized soak (TestStatusDBSoakInvariants,
# which calls CheckInvariants after every operation) and the
# concurrent commit soak — the race pass that protects the status
# database's two-phase commit and shallow snapshots.
go test -race ./...

echo "== flake loop (concurrent soak, whole-commit reads, byte counters, peer out-queues, post-accept pass, stalled remotes) =="
# The soak and byte-counter tests once failed only some of the time;
# TestBatchProbeSeesWholeCommit races batch probes and UnspentCount
# against commits and fails only when a reader catches one half
# applied; the out-queue tests race announcements against handshakes
# and stall peers mid-stream; the post-accept tests wait on pipe peers
# and a second node; the stalled-remote tests time a light client
# against a server that never reads and a paced sender against a
# remote that pauses. -count=20 (which also bypasses the test cache)
# makes a reintroduced flake fail here instead of intermittently.
go test -count=20 -run 'TestStatusDBConcurrentSoak|TestBatchProbeSeesWholeCommit|TestByteCounters|TestHelloFirstWhileAnnouncing|TestNeverReadingSubmitter|TestPacedBlockServingStalls|TestStalledLightSubscriberGetsDropFlag|TestTipExtensionReadsNoBlockBytes|TestAnnounceKeepsNothingOfTheScratch|TestReorgAnnouncesOnlyCommittedTip|TestStalledServerEndsClient|TestPacedSendKeepsBackpressure' \
	./internal/statusdb ./internal/p2p ./internal/p2p/wire ./internal/light
# The announcement's relay index and light pushes must share nothing
# with the pooled decode scratch; the race detector reports any byte
# they still share while the test poisons it.
go test -race -count=5 -run 'TestAnnounceKeepsNothingOfTheScratch' ./internal/p2p

echo "== wire client loop (-race) =="
# The light client and the state-sync downloader share the peer's
# wire session: a reader, a writer goroutine and senders on one
# out-queue.
go test -race -count=5 ./internal/light ./internal/statesync

echo "== state-sync manifest fuzz (10 s) =="
# Manifests arrive from peers: DecodeManifest must never panic, and a
# manifest it accepts must re-encode to its own bytes.
go test -run '^$' -fuzz '^FuzzDecodeManifest$' -fuzztime 10s -parallel 4 ./internal/statesync

echo "== status database consistency loop (-race) =="
# One lock over the status database: every probe, batch and aggregate
# sees a whole commit or none of it, and exports never tear.
go test -race -count=5 -run 'TestStatusDBConcurrentSoak|TestBatchProbeSeesWholeCommit' ./internal/statusdb

echo "== verdict-route equivalence loop (reference model, -race) =="
# Block connect, transaction admission and the light verifier share
# one route (verify stage + ordered reduce) at every worker count;
# these suites pin it to the test-only reference model, to the
# recycling of its verdict storage, and to the cache keys a commit
# retires. Their failure selection depends on
# goroutine scheduling, so run them repeatedly under the race detector.
go test -race -count=5 -run 'TestPipelineEquivalence|TestPipelineFailureDeterministic|TestPreverifyConnectEquivalence|TestReferenceAcceptsChain|TestRecycledVerdictsDoNotLeak|TestTxBatchMatchesReference|TestCommitRetiresCacheKeys' \
	./internal/core
go test -race -count=5 -run 'TestVerifyBlock' ./internal/light
# Admission borrow-decodes each batch and the pool keeps only bytes:
# the equivalence gate, the pool's index and eviction tests and the
# relay's splice-and-assemble tests read those bytes from several
# goroutines.
go test -race -count=5 ./internal/mempool ./internal/relay ./internal/admission

echo "== per-height index loop (reference models, -race) =="
# The chain store's compact hash index answers like a full-hash map
# over random append/truncate/reopen sequences with forced key
# collisions, and fork choice's fixed-width work matches math/big,
# also across a reorg and back.
go test -race -count=5 -run 'TestHashIndexMatchesReference|TestWorkMatchesBigInt|TestReorgBackUsesOldBranchWork' \
	./internal/chainstore ./internal/forkchoice

echo "== verified-proof cache loop (reference LRU, -race) =="
# The cache's index and LRU links are hand-managed slot arrays; pin
# them to a container/list model and hammer them from many goroutines.
go test -race -count=20 -run 'TestConcurrentUse|TestMatchesReferenceLRU' ./internal/vcache

echo "== allocation gate (warm ingest path) =="
# The zero-alloc tests carry a !race build tag (race instrumentation
# skews allocation accounting), so the -race pass above never sees
# them — run them explicitly.
go test -run 'TestWarmAdmissionAllocBudget|TestWarmDecodeZeroAllocs|TestWarmConnectAllocBudget' \
	./internal/core/
go test -run 'TestScratchBuffersSteadyStateZeroAllocs' ./internal/ingest/
# One admitted transaction, intake to commit, allocates at most its
# measured budget of objects; the pool holds each transaction as its
# size-classed bytes plus a fixed record.
go test -run 'TestAdmissionAllocBudget' ./internal/admission/
go test -run 'TestPoolHoldsWireBytes' ./internal/mempool/
# The verified-proof cache: at most 56 B per entry when full, almost
# nothing before the first Add, no allocation on Contains, on an Add
# that reuses an evicted slot, or on a steady Add+Remove cycle.
go test -run 'TestFullCacheHeapBudget|TestNewIsLazy|TestSteadyStateZeroAllocs|TestAddRemoveSteadyStateZeroAllocs' ./internal/vcache/
# The status database's warm Connect and warm Disconnect each allocate
# only their encode slab, and a batch probe into a sized buffer nothing; a set spent down to a
# few survivors holds a right-sized map and at most twice their
# encoded bytes.
go test -run 'TestWarmCommitAllocs|TestSpentOutSetReleasesHeap' ./internal/statusdb/
# Per height, the chain store holds at most 150 B after GC, and a
# fork-choice work-prefix rebuild allocates at most its array.
go test -run 'TestIndexHeapBudget' ./internal/chainstore/
go test -run 'TestPrefixRebuildAllocs' ./internal/forkchoice/
# Peer writers encode frames in place in their bufio.Writer.
go test -run 'TestWriteFrameZeroAllocs' ./internal/p2p/wire/
# -benchmem regression gate: the warm decode+connect cycle must stay
# amortized under one allocation per input (allocs/op < inputs/block).
bench_out=$(go test -run '^$' -bench 'BenchmarkWarmDecodeConnect$' -benchmem -benchtime 50x ./internal/core/)
alloc_line=$(echo "$bench_out" | grep '^BenchmarkWarmDecodeConnect')
allocs=$(echo "$alloc_line" | awk '{for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i - 1)}')
inputs=$(echo "$alloc_line" | awk '{for (i = 2; i <= NF; i++) if ($i == "inputs/block") print $(i - 1)}')
if [ -z "$allocs" ] || [ -z "$inputs" ]; then
	echo "check.sh: could not parse BenchmarkWarmDecodeConnect output:" >&2
	echo "$bench_out" >&2
	exit 1
fi
if ! awk -v a="$allocs" -v n="$inputs" 'BEGIN { exit !(a < n) }'; then
	echo "check.sh: warm decode+connect allocates $allocs objects for a $inputs-input block (>= 1 per input)" >&2
	exit 1
fi
echo "warm decode+connect: $allocs allocs for a $inputs-input block"

echo "== benchmark smoke (1 iteration) =="
# One iteration of every internal benchmark so benchmark code cannot
# rot; the repo-root bench_test.go experiments are too slow for a
# smoke pass and are exercised by their own tests instead.
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "== fast-sync smoke (two nodes over localhost) =="
# A server node imports a generated chain and serves gossip +
# snapshots; a fresh client bootstraps with -fastsync and must land on
# the same tip and unspent count as a full-IBD node over the same
# chain.
tmp=$(mktemp -d)
# A backgrounded node's log is created by its shell child, which may
# not have run yet when the listen-address loops below first poll it;
# a missing log is polled again rather than failing under set -e.
server_pid=""
heavy_pid=""
light_pid=""
admit_pid=""
relay_a_pid=""
relay_b_pid=""
relay_c_pid=""
light_srv_pid=""
light_client_pids=""
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
	[ -n "$heavy_pid" ] && kill "$heavy_pid" 2>/dev/null
	[ -n "$light_pid" ] && kill "$light_pid" 2>/dev/null
	[ -n "$admit_pid" ] && kill "$admit_pid" 2>/dev/null
	[ -n "$relay_a_pid" ] && kill "$relay_a_pid" 2>/dev/null
	[ -n "$relay_b_pid" ] && kill "$relay_b_pid" 2>/dev/null
	[ -n "$relay_c_pid" ] && kill "$relay_c_pid" 2>/dev/null
	[ -n "$light_srv_pid" ] && kill "$light_srv_pid" 2>/dev/null
	for p in $light_client_pids; do
		kill "$p" 2>/dev/null
	done
	rm -rf "$tmp"
}
trap cleanup EXIT
go build -o "$tmp/bin/" ./cmd/...
# -forkat also emits a competing branch (diverging at 240, 6 blocks)
# that the fork-choice smokes below feed back against the main chain.
"$tmp/bin/chaingen" -blocks 300 -forkat 240 -branchblocks 6 \
	-out "$tmp/chains" >/dev/null 2>&1
"$tmp/bin/ebvgossip" -datadir "$tmp/server" -import "$tmp/chains/inter/chain" \
	-listen 127.0.0.1:0 -quiet 2>"$tmp/server.log" &
server_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$tmp/server.log" 2>/dev/null || true)
	[ -n "$addr" ] && break
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "check.sh: gossip server did not come up" >&2
	cat "$tmp/server.log" >&2
	exit 1
fi
"$tmp/bin/ebvnode" -fastsync "$addr" -datadir "$tmp/client" >"$tmp/client.out" 2>/dev/null
kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
# The reference node replays through the cross-block pipeline (-depth),
# so the smoke also proves the pipelined IBD path agrees with fast sync.
"$tmp/bin/ebvnode" -chain "$tmp/chains/inter/chain" -depth 4 -workers 2 -datadir "$tmp/ref" >"$tmp/ref.out" 2>/dev/null
fast_blocks=$(grep '^  blocks:' "$tmp/client.out")
ref_blocks=$(grep '^  blocks:' "$tmp/ref.out")
fast_unspent=$(grep -o '[0-9]* unspent' "$tmp/client.out")
ref_unspent=$(grep -o '[0-9]* unspent' "$tmp/ref.out")
if [ -z "$fast_blocks" ] || [ "$fast_blocks" != "$ref_blocks" ] ||
	[ -z "$fast_unspent" ] || [ "$fast_unspent" != "$ref_unspent" ]; then
	echo "check.sh: fast-synced node disagrees with full IBD" >&2
	echo "  fast: $fast_blocks / $fast_unspent" >&2
	echo "  ref:  $ref_blocks / $ref_unspent" >&2
	exit 1
fi
echo "fast sync matches full IBD ($fast_blocks, $fast_unspent)"

echo "== fork-choice smoke (local reorg via -branch) =="
# IBD the shorter branch chain, then feed the heavier main chain
# through the fork-choice engine: exactly one reorg, six blocks deep.
"$tmp/bin/ebvnode" -chain "$tmp/chains/branch/inter/chain" \
	-branch "$tmp/chains/inter/chain" -datadir "$tmp/reorgnode" \
	>"$tmp/reorg.out" 2>/dev/null
if ! grep -q 'fork choice: 1 reorgs (deepest 6)' "$tmp/reorg.out"; then
	echo "check.sh: -branch replay did not produce the expected reorg" >&2
	cat "$tmp/reorg.out" >&2
	exit 1
fi
echo "local fork choice reorged to the heavier chain (depth 6)"

echo "== partition/heal smoke (two nodes over localhost) =="
# A heavy node serves the 300-block main chain; a light node starts on
# the 246-block branch and connects. Work comparison in the handshake
# makes the light node fetch the heavier headers and switch branches.
"$tmp/bin/ebvgossip" -datadir "$tmp/heavy" -import "$tmp/chains/inter/chain" \
	-listen 127.0.0.1:0 -quiet 2>"$tmp/heavy.log" &
heavy_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$tmp/heavy.log" 2>/dev/null || true)
	[ -n "$addr" ] && break
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "check.sh: heavy gossip node did not come up" >&2
	cat "$tmp/heavy.log" >&2
	exit 1
fi
# No -quiet: OnBlock lines on stdout expose the light node's tip, and
# "block 299 accepted" marks full convergence onto the heavy chain.
"$tmp/bin/ebvgossip" -datadir "$tmp/light" -import "$tmp/chains/branch/inter/chain" \
	-connect "$addr" -listen 127.0.0.1:0 >"$tmp/light.out" 2>"$tmp/light.log" &
light_pid=$!
healed=""
i=0
while [ $i -lt 100 ]; do
	if grep -q 'block 299 accepted' "$tmp/light.out" &&
		grep -q 'reorg depth 6' "$tmp/light.log"; then
		healed=yes
		break
	fi
	sleep 0.1
	i=$((i + 1))
done
kill "$heavy_pid" "$light_pid" 2>/dev/null || true
wait "$heavy_pid" 2>/dev/null || true
wait "$light_pid" 2>/dev/null || true
heavy_pid=""
light_pid=""
if [ -z "$healed" ]; then
	echo "check.sh: light node never reorged onto the heavy chain" >&2
	cat "$tmp/light.log" >&2
	tail -5 "$tmp/light.out" >&2
	exit 1
fi
echo "partition healed over TCP (light node reorged to height 299)"

# bench_smoke ablation-ID [FLAGS...] runs one ebvbench experiment at
# -quick scale and checks that BENCH_ID.json carries a provenance
# record and its rows.
bench_smoke() {
	exp=$1
	id=${exp#ablation-}
	shift
	"$tmp/bin/ebvbench" -exp "$exp" -quick -blocks 200 \
		-datadir "$tmp/bench" -artifactdir "$tmp" "$@" >/dev/null 2>&1
	out="$tmp/BENCH_$id.json"
	if [ ! -f "$out" ]; then
		echo "check.sh: $exp wrote no BENCH_$id.json" >&2
		exit 1
	fi
	if ! grep -q '"provenance": {' "$out" || ! grep -q '"rows": \[' "$out"; then
		echo "check.sh: BENCH_$id.json lacks a provenance object or rows:" >&2
		cat "$out" >&2
		exit 1
	fi
	echo "BENCH_$id.json written with provenance"
}

echo "== reorg bench smoke (with CPU profile) =="
# Also exercises the -cpuprofile plumbing.
bench_smoke ablation-reorg -cpuprofile "$tmp/reorg.cpu.prof"
if [ ! -s "$tmp/reorg.cpu.prof" ]; then
	echo "check.sh: -cpuprofile wrote no profile" >&2
	exit 1
fi

echo "== bootstrap bench smoke =="
bench_smoke ablation-bootstrap

echo "== ibd pipeline bench smoke =="
bench_smoke ablation-ibdpipe

echo "== tx admission smoke (ebvload over localhost) =="
# An admission-enabled node serves the 300-block main chain; ebvload
# builds spends of its unspent outputs from the same chain directory
# and submits them over TCP. Every submission must be admitted — any
# reject means the batched pipeline disagrees with the chain state the
# corpus was derived from.
"$tmp/bin/ebvgossip" -datadir "$tmp/admit" -import "$tmp/chains/inter/chain" \
	-listen 127.0.0.1:0 -quiet 2>"$tmp/admit.log" &
admit_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$tmp/admit.log" 2>/dev/null || true)
	[ -n "$addr" ] && break
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "check.sh: admission server did not come up" >&2
	cat "$tmp/admit.log" >&2
	exit 1
fi
"$tmp/bin/ebvload" -addr "$addr" -chain "$tmp/chains/inter/chain" \
	-clients 8 -txs 64 -out "$tmp/BENCH_load.json" 2>"$tmp/load.log"
kill "$admit_pid" 2>/dev/null || true
wait "$admit_pid" 2>/dev/null || true
admit_pid=""
admitted=$(grep -o '"admitted": [0-9]*' "$tmp/BENCH_load.json" | awk '{print $2}')
if [ -z "$admitted" ] || [ "$admitted" -eq 0 ]; then
	echo "check.sh: ebvload admitted nothing" >&2
	cat "$tmp/load.log" >&2
	cat "$tmp/BENCH_load.json" >&2
	exit 1
fi
if grep -q '"rejected"' "$tmp/BENCH_load.json"; then
	echo "check.sh: ebvload saw unexpected rejects" >&2
	cat "$tmp/BENCH_load.json" >&2
	exit 1
fi
echo "ebvload admitted $admitted transactions with zero rejects"

echo "== compact relay smoke (two nodes, warm mempools, live mining) =="
# A and B both import the 300-block chain, then ebvload warms both
# mempools with the SAME deterministic spend corpus (the load
# generator derives it from the chain, so two runs agree tx for tx).
# A mines the pending transactions into block 300 and announces it to
# B as a compact short-id block. B already holds every transaction,
# so its shutdown counters must show a reconstruction with zero
# transactions fetched and zero full-block fallbacks — the warm-path
# guarantee the relay design promises.
"$tmp/bin/ebvgossip" -datadir "$tmp/relayA" -import "$tmp/chains/inter/chain" \
	-listen 127.0.0.1:0 -quiet -mine 250ms 2>"$tmp/relayA.log" &
relay_a_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$tmp/relayA.log" 2>/dev/null || true)
	[ -n "$addr" ] && break
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "check.sh: relay miner node did not come up" >&2
	cat "$tmp/relayA.log" >&2
	exit 1
fi
"$tmp/bin/ebvgossip" -datadir "$tmp/relayB" -import "$tmp/chains/inter/chain" \
	-connect "$addr" -listen 127.0.0.1:0 >"$tmp/relayB.out" 2>"$tmp/relayB.log" &
relay_b_pid=$!
addrB=""
i=0
while [ $i -lt 100 ]; do
	addrB=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$tmp/relayB.log" 2>/dev/null || true)
	[ -n "$addrB" ] && break
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addrB" ]; then
	echo "check.sh: relay receiver node did not come up" >&2
	cat "$tmp/relayB.log" >&2
	exit 1
fi
# Warm the receiver first: the miner starts packaging as soon as its
# own pool is non-empty, and B must already hold the transactions by
# the time the announcement lands.
"$tmp/bin/ebvload" -addr "$addrB" -chain "$tmp/chains/inter/chain" \
	-clients 8 -txs 64 -out "$tmp/relay_load_b.json" 2>/dev/null
"$tmp/bin/ebvload" -addr "$addr" -chain "$tmp/chains/inter/chain" \
	-clients 8 -txs 64 -out "$tmp/relay_load_a.json" 2>/dev/null
mined=""
i=0
while [ $i -lt 100 ]; do
	if grep -q 'block 300 accepted' "$tmp/relayB.out"; then
		mined=yes
		break
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$mined" ]; then
	echo "check.sh: receiver never accepted the mined block" >&2
	cat "$tmp/relayA.log" >&2
	cat "$tmp/relayB.log" >&2
	exit 1
fi
kill "$relay_a_pid" "$relay_b_pid" 2>/dev/null || true
wait "$relay_a_pid" 2>/dev/null || true
wait "$relay_b_pid" 2>/dev/null || true
relay_a_pid=""
relay_b_pid=""
a_cmpct_out=$(awk '$1 == "cmpctblock" {print $8}' "$tmp/relayA.log")
b_received=$(awk '$1 == "compact" && $2 == "relay:" {print $6}' "$tmp/relayB.log")
b_reconstructed=$(awk '$1 == "compact" && $2 == "relay:" {print $8}' "$tmp/relayB.log")
b_fetched=$(awk '$1 == "compact" && $2 == "relay:" {print $10}' "$tmp/relayB.log")
b_fallbacks=$(awk '$1 == "compact" && $2 == "relay:" {print $12}' "$tmp/relayB.log")
if [ -z "$a_cmpct_out" ] || [ "$a_cmpct_out" -eq 0 ]; then
	echo "check.sh: miner announced no compact blocks" >&2
	cat "$tmp/relayA.log" >&2
	exit 1
fi
if [ -z "$b_reconstructed" ] || [ "$b_reconstructed" -eq 0 ]; then
	echo "check.sh: receiver reconstructed no compact blocks" >&2
	cat "$tmp/relayB.log" >&2
	exit 1
fi
if [ "$b_fetched" -ne 0 ] || [ "$b_fallbacks" -ne 0 ]; then
	echo "check.sh: warm receiver fetched $b_fetched txns with $b_fallbacks fallbacks, want 0/0" >&2
	cat "$tmp/relayB.log" >&2
	exit 1
fi
echo "compact relay: $a_cmpct_out announced, $b_received received, $b_reconstructed reconstructed, 0 txns fetched"

echo "== light-tier smoke (1 full node + 50 ebvlight clients) =="
# One serving full node imports the 300-block chain. 50 light clients
# attach, subscribe for the stock miner address at handshake, and sync
# headers only. ebvload then fills the server's mempool and -mine
# packages the spends into block 300, whose coinbase pays the watched
# key — so the server pushes that one block to every subscriber. Each
# client must verify it from headers + carried proofs alone and its
# summary must show zero full-block downloads and zero verify failures.
"$tmp/bin/ebvgossip" -datadir "$tmp/lightsrv" -import "$tmp/chains/inter/chain" \
	-listen 127.0.0.1:0 -lightserve -txsubmit -mine 250ms -maxpeers 80 \
	2>"$tmp/lightsrv.log" &
light_srv_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$tmp/lightsrv.log" 2>/dev/null || true)
	[ -n "$addr" ] && break
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "check.sh: light-serve node did not come up" >&2
	cat "$tmp/lightsrv.log" >&2
	exit 1
fi
lc_count=50
n=1
while [ $n -le $lc_count ]; do
	"$tmp/bin/ebvlight" -connect "$addr" -watchseed ebvgossip-miner \
		-exitafter 1 -timeout 60s -quiet \
		>"$tmp/lc.$n.out" 2>"$tmp/lc.$n.log" &
	light_client_pids="$light_client_pids $!"
	n=$((n + 1))
done
# Every client must reach the served tip before the matching block is
# mined, so the verification below exercises a live push.
lc_synced=0
i=0
while [ $i -lt 300 ]; do
	lc_synced=$(grep -l '^synced: tip 299 ' "$tmp"/lc.*.log 2>/dev/null | wc -l)
	[ "$lc_synced" -eq "$lc_count" ] && break
	sleep 0.1
	i=$((i + 1))
done
if [ "$lc_synced" -ne "$lc_count" ]; then
	echo "check.sh: only $lc_synced/$lc_count light clients finished header sync" >&2
	cat "$tmp/lightsrv.log" >&2
	cat "$tmp/lc.1.log" >&2
	exit 1
fi
"$tmp/bin/ebvload" -addr "$addr" -chain "$tmp/chains/inter/chain" \
	-clients 8 -txs 64 -out "$tmp/light_load.json" 2>/dev/null
lc_failed=0
for p in $light_client_pids; do
	if ! wait "$p"; then
		lc_failed=$((lc_failed + 1))
	fi
done
light_client_pids=""
kill "$light_srv_pid" 2>/dev/null || true
wait "$light_srv_pid" 2>/dev/null || true
light_srv_pid=""
if [ "$lc_failed" -ne 0 ]; then
	echo "check.sh: $lc_failed/$lc_count light clients failed to verify a pushed block" >&2
	grep -L 'SUMMARY' "$tmp"/lc.*.out >&2 || true
	cat "$tmp"/lc.*.log >&2
	exit 1
fi
n=1
while [ $n -le $lc_count ]; do
	if ! grep -q '"BlocksVerified":[1-9]' "$tmp/lc.$n.out" ||
		! grep -q '"VerifyFailures":0' "$tmp/lc.$n.out" ||
		! grep -q '"FullBlockDownloads":0' "$tmp/lc.$n.out"; then
		echo "check.sh: light client $n summary is wrong:" >&2
		cat "$tmp/lc.$n.out" >&2
		cat "$tmp/lc.$n.log" >&2
		exit 1
	fi
	n=$((n + 1))
done
echo "light tier: $lc_count clients synced headers and verified the pushed block with 0 full-block downloads"

echo "check.sh: all checks passed"
