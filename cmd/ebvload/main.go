// Command ebvload drives a running ebvgossip node with transaction
// submissions over TCP and reports admission throughput and latency.
//
// It reads the same chain directory the server was seeded from, finds
// unspent mature coinbase outputs, builds one fully proved and signed
// transaction per output (workload keys are derived from coordinates,
// so no generator state is needed), and then opens -clients concurrent
// connections that submit at an open-loop aggregate -rate: send times
// are fixed on a schedule before the run starts, so a slow server
// builds queueing delay instead of silently throttling the offered
// load. Every submission is matched to its txack by request id and
// the per-transaction latency distribution is reported.
//
//	chaingen -blocks 300 -out ./chains
//	ebvgossip -datadir ./seed -import ./chains/inter/chain -listen 127.0.0.1:7401
//	ebvload -addr 127.0.0.1:7401 -chain ./chains/inter/chain -clients 64 -rate 2000
//
// The JSON report (tx/s, p50/p95/p99, per-code reject counts) goes to
// -out and a one-line summary to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/admission"
	"ebv/internal/chainstore"
	"ebv/internal/loadgen"
	"ebv/internal/p2p/wire"
	"ebv/internal/sig"
)

func main() {
	var (
		addr     = flag.String("addr", "", "server address (an ebvgossip node with -txsubmit)")
		chainDir = flag.String("chain", "", "chain directory the server was seeded from")
		clients  = flag.Int("clients", 8, "concurrent TCP submitter connections")
		txCount  = flag.Int("txs", 0, "transactions to submit (0 = every spendable coinbase)")
		rate     = flag.Float64("rate", 0, "aggregate open-loop submission rate in tx/s (0 = as fast as possible)")
		fee      = flag.Uint64("fee", 1_000, "fee each transaction pays")
		timeout  = flag.Duration("timeout", 60*time.Second, "deadline for the whole run")
		outPath  = flag.String("out", "BENCH_admission.json", "JSON report path")
	)
	flag.Parse()
	if *addr == "" || *chainDir == "" {
		fail(fmt.Errorf("-addr and -chain are required"))
	}
	if *clients <= 0 {
		fail(fmt.Errorf("-clients must be positive"))
	}

	txs, err := prepare(*chainDir, *txCount, *fee)
	if err != nil {
		fail(err)
	}
	if len(txs) == 0 {
		fail(fmt.Errorf("no spendable coinbase outputs in %s", *chainDir))
	}
	if *clients > len(txs) {
		*clients = len(txs)
	}
	fmt.Fprintf(os.Stderr, "ebvload: prepared %d transactions, %d clients, rate %.6g tx/s\n",
		len(txs), *clients, *rate)

	rep, err := run(*addr, txs, *clients, *rate, *timeout)
	if err != nil {
		fail(err)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "ebvload: %d/%d admitted in %.0f ms — %.6g tx/s, p50 %.3g ms, p95 %.3g ms, p99 %.3g ms\n",
		rep.Admitted, rep.Submitted, rep.WallMS, rep.TxPerSec, rep.P50MS, rep.P95MS, rep.P99MS)
}

// prepare builds the submission corpus from the chain directory: one
// signed spend per unspent mature output, via internal/loadgen.
func prepare(dir string, want int, fee uint64) ([][]byte, error) {
	chain, err := chainstore.Open(dir)
	if err != nil {
		return nil, err
	}
	defer chain.Close()
	return loadgen.Prepare(chain, sig.SimSig{}, want, fee)
}

// Report is the JSON shape written to -out.
type Report struct {
	Clients   int            `json:"clients"`
	RateTxSec float64        `json:"rate_tx_s"` // offered (0 = unpaced)
	Submitted int            `json:"submitted"`
	Acked     int            `json:"acked"`
	Admitted  int            `json:"admitted"`
	Rejected  map[string]int `json:"rejected,omitempty"`
	WallMS    float64        `json:"wall_ms"`
	TxPerSec  float64        `json:"tx_per_s"` // acked over wall
	P50MS     float64        `json:"p50_ms"`
	P95MS     float64        `json:"p95_ms"`
	P99MS     float64        `json:"p99_ms"`
}

// run opens the connections, fires the schedule, and collects acks.
func run(addr string, txs [][]byte, clients int, rate float64, timeout time.Duration) (*Report, error) {
	conns := make([]*submitter, clients)
	for c := range conns {
		s, err := dial(addr)
		if err != nil {
			for _, prev := range conns[:c] {
				prev.conn.Close(nil)
			}
			return nil, fmt.Errorf("client %d: %w", c, err)
		}
		conns[c] = s
	}

	// The schedule is fixed before the first send: transaction j
	// departs at start + j/rate regardless of how the server is doing
	// (open loop). Client c owns every j with j%clients == c.
	sendNanos := make([]int64, len(txs))
	start := time.Now()
	deadline := start.Add(timeout)
	var wg sync.WaitGroup
	for c, s := range conns {
		wg.Add(1)
		go func(c int, s *submitter) {
			defer wg.Done()
			defer s.conn.Close(nil)
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.read(sendNanos, countOwned(len(txs), clients, c), deadline)
			}()
			for j := c; j < len(txs); j += clients {
				if rate > 0 {
					due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				atomic.StoreInt64(&sendNanos[j], time.Now().UnixNano())
				if err := s.write(uint64(j), txs[j]); err != nil {
					break // closed: the reader reports why
				}
			}
			<-done
		}(c, s)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &Report{
		Clients:   clients,
		RateTxSec: rate,
		Submitted: len(txs),
		Rejected:  make(map[string]int),
	}
	var lats []float64
	for _, s := range conns {
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "ebvload: client error: %v\n", s.err)
		}
		rep.Acked += len(s.lats)
		rep.Admitted += s.admitted
		lats = append(lats, s.lats...)
		for code, n := range s.rejects {
			rep.Rejected[admission.CodeString(code)] += n
		}
	}
	if len(rep.Rejected) == 0 {
		rep.Rejected = nil
	}
	rep.WallMS = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		rep.TxPerSec = float64(rep.Acked) / wall.Seconds()
	}
	sort.Float64s(lats)
	rep.P50MS = percentile(lats, 0.50)
	rep.P95MS = percentile(lats, 0.95)
	rep.P99MS = percentile(lats, 0.99)
	return rep, nil
}

// countOwned returns how many of n round-robin slots client c owns.
func countOwned(n, clients, c int) int {
	return (n - c + clients - 1) / clients
}

// percentile reads quantile q from sorted (ms) latencies.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// submitter is one load connection.
type submitter struct {
	conn *wire.Conn

	err      error
	admitted int
	rejects  map[byte]int
	lats     []float64 // ms, acked only
}

// dial connects and completes the hello exchange. A featureless hello
// at height 0 keeps the server idle (it has nothing to pull from us)
// and stays byte-compatible with any peer.
func dial(addr string) (*submitter, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(nc, wire.ConnConfig{})
	hello, err := conn.Handshake(&wire.Message{Kind: wire.Hello, Height: 0}, 10*time.Second)
	if err != nil {
		conn.Close(nil)
		return nil, fmt.Errorf("reading hello (server full?): %w", err)
	}
	if hello.Features&wire.FeatureTxSubmit == 0 {
		conn.Close(nil)
		return nil, fmt.Errorf("server does not advertise tx submission (features %08b)", hello.Features)
	}
	return &submitter{conn: conn, rejects: make(map[byte]int)}, nil
}

// write queues one submission once the previous ones have left, so a
// producer faster than the socket waits instead of overflowing the
// out-queue.
func (s *submitter) write(reqid uint64, raw []byte) error {
	return s.conn.SendPaced(&wire.Message{Kind: wire.Tx, Height: reqid, Payload: raw}, 0)
}

// read collects acks until every owned submission is answered or the
// deadline passes. Unrelated gossip frames (inv for a new block, say)
// are skipped.
func (s *submitter) read(sendNanos []int64, want int, deadline time.Time) {
	for got := 0; got < want; {
		m, err := s.conn.Read(deadline)
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("after %d/%d acks: %w", got, want, err)
			}
			return
		}
		if m.Kind != wire.TxAck {
			continue
		}
		got++
		sent := atomic.LoadInt64(&sendNanos[m.Height])
		s.lats = append(s.lats, float64(time.Now().UnixNano()-sent)/float64(time.Millisecond))
		if m.Code == admission.CodeOK {
			s.admitted++
		} else {
			s.rejects[m.Code]++
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ebvload:", err)
	os.Exit(1)
}
