package simnet

import (
	"testing"
	"time"
)

// TestFig18Golden pins the propagation simulator's output: a fixed
// seed must reproduce these arrival times to the nanosecond. Fig. 18
// is a pure function of the seed and the validation model, so any
// change to the topology sampler, the link-jitter draws or the event
// loop that shifts the RNG stream shows up here.
func TestFig18Golden(t *testing.T) {
	r, err := Run(Config{Seed: 18, Validation: Fixed(25 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	wantArrival := []time.Duration{
		145830933, 292678893, 460978483, 611364361, 296467911,
		433204161, 293175792, 431542679, 551396065, 614625778,
		142058564, 298416247, 298293614, 276603583, 424381349,
		447602533, 287993171, 425871333, 584256147, 0,
	}
	checkDurations(t, "fixed arrival", r.Arrival, wantArrival)

	// The Fig. 18 path proper: repeated runs under a normal model,
	// summarized per node count.
	runs, err := Repeat(Config{Seed: 18, Validation: Normal{Mean: 40 * time.Millisecond, StdDev: 15 * time.Millisecond}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := []time.Duration{
		0, 108839242, 147991696, 200408468, 225236646,
		267350715, 293082824, 362068936, 382777174, 429644292,
		463040333, 479157028, 532947460, 563455106, 586900166,
		609240261, 651470145, 732323197, 758532746, 805115980,
	}
	checkDurations(t, "normal mean", Summarize(runs).Mean, wantMean)
}

func checkDurations(t *testing.T, what string, got, want []time.Duration) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", what, i, int64(got[i]), int64(want[i]))
		}
	}
}
