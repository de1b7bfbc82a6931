package experiments

import (
	"bytes"
	"strconv"
	"testing"

	"deepbat/internal/obs"
)

// scenariosAt runs the scenarios experiment on a fresh lab at the given
// worker count and returns the rendered report plus the merged metric
// snapshot of every cell.
func scenariosAt(t *testing.T, workers int) (string, []byte) {
	t.Helper()
	cfg := QuickLabConfig()
	cfg.Workers = workers
	l := NewLab(cfg)
	l.Obs = obs.NewRegistry()
	rep, err := Scenarios(l)
	if err != nil {
		t.Fatalf("Scenarios(workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := l.Obs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return rep.String(), buf.Bytes()
}

// TestScenariosWorkerInvariance pins the acceptance criterion of the sweep
// retrofit: the scenarios report AND the merged metric snapshot are
// byte-identical at any worker count.
func TestScenariosWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("scenarios matrix is expensive; run without -short")
	}
	refRep, refSnap := scenariosAt(t, 1)
	for _, w := range []int{4, 8} {
		rep, snap := scenariosAt(t, w)
		if rep != refRep {
			t.Fatalf("workers=%d report differs from workers=1:\n--- w=%d ---\n%s\n--- w=1 ---\n%s", w, w, rep, refRep)
		}
		if !bytes.Equal(snap, refSnap) {
			t.Fatalf("workers=%d merged metric snapshot differs from workers=1", w)
		}
	}
}

// TestChaosWorkerInvariance covers the qsim-backed sweep the same way.
func TestChaosWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is expensive; run without -short")
	}
	run := func(workers int) (string, []byte) {
		cfg := QuickLabConfig()
		cfg.Workers = workers
		l := NewLab(cfg)
		l.Obs = obs.NewRegistry()
		rep, err := Chaos(l)
		if err != nil {
			t.Fatalf("Chaos(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := l.Obs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return rep.String(), buf.Bytes()
	}
	refRep, refSnap := run(1)
	rep, snap := run(8)
	if rep != refRep {
		t.Fatalf("workers=8 chaos report differs from workers=1")
	}
	if !bytes.Equal(snap, refSnap) {
		t.Fatalf("workers=8 chaos metric snapshot differs from workers=1")
	}
}

// reportAt runs exp on l at the given worker count and returns the rendered
// report.
func reportAt(t *testing.T, l *Lab, exp func(*Lab) (*Report, error), workers int) (*Report, string) {
	t.Helper()
	l.Cfg.Workers = workers
	rep, err := exp(l)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return rep, rep.String()
}

// TestFig14WorkerInvariance requires the quick-lab Fig. 14 report to be
// byte-identical at 1 and 4 workers — its four trace cells read one shared
// model — and checks the figure's verdict: attention correlates positively
// with the log gap on every trace. One lab serves both runs, so the base
// model is trained once.
func TestFig14WorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-trains the quick-lab model; run without -short")
	}
	l := NewLab(QuickLabConfig())
	rep, ref := reportAt(t, l, Fig14, 1)
	if _, got := reportAt(t, l, Fig14, 4); got != ref {
		t.Fatalf("workers=4 fig14 differs from workers=1:\n--- w=4 ---\n%s\n--- w=1 ---\n%s", got, ref)
	}
	rows := rep.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("fig14 has %d trace rows, want 4", len(rows))
	}
	for _, row := range rows {
		corr, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if corr <= 0 {
			t.Errorf("%s: corr(attention, log gap) = %v, want > 0", row[0], corr)
		}
	}
}

// TestTrainingCellsWorkerInvariance requires Fig. 15b, whose four cells each
// train a model, to be byte-identical at 1 and 4 workers: training cells
// share a process and nothing else. The training budget is cut below the
// quick lab's to keep the race-detector run short.
func TestTrainingCellsWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four models per run; run without -short")
	}
	cfg := QuickLabConfig()
	cfg.TrainSamples, cfg.TrainEpochs = 60, 2
	l := NewLab(cfg)
	_, ref := reportAt(t, l, Fig15b, 1)
	if _, got := reportAt(t, l, Fig15b, 4); got != ref {
		t.Fatalf("workers=4 fig15b differs from workers=1:\n--- w=4 ---\n%s\n--- w=1 ---\n%s", got, ref)
	}
}
