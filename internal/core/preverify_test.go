package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"ebv/internal/chainstore"
	"ebv/internal/script"
	"ebv/internal/statusdb"
)

// gid parses the current goroutine's id from its stack header.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	fmt.Sscanf(string(buf[:n]), "goroutine %d", &id)
	return id
}

// TestRunWorkersInlineForDegenerateShapes pins the no-spawn guard:
// single-task and single-worker calls must run every task on the
// calling goroutine, with no pool setup at all.
func TestRunWorkersInlineForDegenerateShapes(t *testing.T) {
	caller := gid()
	for _, tc := range []struct{ workers, n int }{
		{8, 1}, {1, 64}, {0, 64}, {8, 0}, {1, 1},
	} {
		calls := 0
		offCaller := 0
		runWorkers(tc.workers, tc.n, func(i int) bool {
			calls++
			if gid() != caller {
				offCaller++
			}
			return true
		})
		if calls != tc.n {
			t.Fatalf("workers=%d n=%d: %d calls, want %d", tc.workers, tc.n, calls, tc.n)
		}
		if offCaller != 0 {
			t.Fatalf("workers=%d n=%d: %d tasks ran off the calling goroutine", tc.workers, tc.n, offCaller)
		}
	}
}

// TestPreverifyConnectEquivalence checks the two-stage split against
// the reference model over the adversarial corpus: Preverify +
// ConnectPreverified must accept/reject exactly as the reference does
// and report the identical error, and the honest block must land on
// the reference's byte-identical state.
func TestPreverifyConnectEquivalence(t *testing.T) {
	f := newFixture(t, 150)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ref := refFixture(t, f)
			two, twoStatus := pipelineFixture(t, f, 1)

			for _, c := range adversarialCases() {
				blk := c.make(t, f)
				if blk == nil {
					t.Logf("case %s: no usable spends, skipped", c.name)
					continue
				}
				errRef := ref.connect(blk)
				pv, errTwo := two.Preverify(blk, nil, workers)
				if errTwo == nil {
					_, errTwo = two.ConnectPreverified(blk, pv, nil)
				}
				if errRef == nil {
					t.Fatalf("case %s: reference accepted the block", c.name)
				}
				sameVerdict(t, "case "+c.name, errRef, errTwo)
			}

			if err := ref.connect(f.lastEBV); err != nil {
				t.Fatalf("reference honest block: %v", err)
			}
			pv, err := two.Preverify(f.lastEBV, nil, workers)
			if err != nil {
				t.Fatalf("preverify honest block: %v", err)
			}
			bd, err := two.ConnectPreverified(f.lastEBV, pv, nil)
			if err != nil {
				t.Fatalf("connect preverified honest block: %v", err)
			}
			if bd.Txs != len(f.lastEBV.Txs) || bd.Inputs != f.lastEBV.TotalInputs() {
				t.Fatalf("two-stage breakdown shape: %+v", bd)
			}
			sameState(t, "honest block", ref.status, twoStatus)
		})
	}
}

// TestConnectPreverifiedStaleLinkRejected pins the committed-tip
// recheck: a block preverified against one tip must be rejected with
// ErrBadLink — before any state is touched — when another block
// committed in between.
func TestConnectPreverifiedStaleLinkRejected(t *testing.T) {
	f := newFixture(t, 150)
	chain, err := chainstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	status := statusdb.New()
	v := NewEBVValidator(status, script.NewEngine(f.gen.Scheme()), chain)
	for i := 0; i < len(f.ebv)-1; i++ {
		if _, err := v.ConnectBlock(f.ebv[i]); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		if err := chain.Append(f.ebv[i].Header, f.ebv[i].Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}

	pv, err := v.Preverify(f.lastEBV, nil, 2)
	if err != nil {
		t.Fatalf("preverify: %v", err)
	}
	// The same block commits through the normal path first.
	if _, err := v.ConnectBlock(f.lastEBV); err != nil {
		t.Fatalf("connect: %v", err)
	}
	if err := chain.Append(f.lastEBV.Header, f.lastEBV.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	tipBefore, _ := status.Tip()
	unspentBefore := status.UnspentCount()

	if _, err := v.ConnectPreverified(f.lastEBV, pv, nil); !errors.Is(err, ErrBadLink) {
		t.Fatalf("stale preverified block must fail the link recheck, got %v", err)
	}
	if tip, _ := status.Tip(); tip != tipBefore || status.UnspentCount() != unspentBefore {
		t.Fatalf("rejected stale block touched state: tip %d->%d, unspent %d->%d",
			tipBefore, tip, unspentBefore, status.UnspentCount())
	}
}
