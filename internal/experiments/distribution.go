package experiments

import (
	"fmt"
	"math"
	"sort"

	"deepbat"
	"deepbat/internal/stats"
	"deepbat/internal/sweep"
)

// fig13Config returns the fixed configuration each trace's distribution is
// evaluated at (the paper pins one batching configuration per subplot).
func fig13Config(name string) deepbat.Config {
	switch name {
	case "alibaba":
		return deepbat.Config{MemoryMB: 2048, BatchSize: 16, TimeoutS: 0.1}
	case "synthetic":
		return deepbat.Config{MemoryMB: 2048, BatchSize: 10, TimeoutS: 0.05}
	default:
		return deepbat.Config{MemoryMB: 2048, BatchSize: 8, TimeoutS: 0.1}
	}
}

// testWindows slices evaluation windows out of a trace's test region: the
// second half for Azure (the first half is training data), everything after
// the fine-tuning hour for the OOD traces, the full trace for Twitter.
func testWindows(l *Lab, name string, seqLen, maxWindows int) [][]float64 {
	tr := l.Trace(name)
	var inter []float64
	switch name {
	case "azure":
		inter = tr.LastHours(l.Cfg.Hours / 2).Interarrivals()
	case "alibaba", "synthetic":
		inter = tr.LastHours(l.Cfg.Hours - 1).Interarrivals()
	default:
		inter = tr.Interarrivals()
	}
	var out [][]float64
	stride := seqLen
	if len(inter) > seqLen*maxWindows {
		stride = (len(inter) - seqLen) / maxWindows
	}
	for start := 0; start+seqLen <= len(inter) && len(out) < maxWindows; start += stride {
		out = append(out, inter[start:start+seqLen])
	}
	return out
}

// systemFor returns the appropriately adapted system for a trace: the base
// Azure-trained model for azure/twitter, the fine-tuned one for the OOD
// traces.
func systemFor(l *Lab, name string) (*deepbat.System, error) {
	if name == "alibaba" || name == "synthetic" {
		return l.TunedSystem(name)
	}
	return l.BaseSystem()
}

// Fig13 reproduces Fig. 13: predicted vs observed latency distributions for
// the four traces, with the per-trace latency MAPE the paper reports
// (2.85% / 3.11% / 3.32% / 3.07% on its testbed).
func Fig13(l *Lab) (*Report, error) {
	r := &Report{ID: "fig13", Title: "Latency distribution prediction (predicted vs simulated percentiles)"}
	names := []string{"azure", "twitter", "alibaba", "synthetic"}
	// Train the systems and generate the traces serially (training holds
	// the process-global grad mode), then evaluate each trace's windows as
	// one parallel cell — window evaluation is pure no-grad inference plus
	// simulation, so cells fan out and the report assembles in trace order.
	for _, name := range names {
		if _, err := systemFor(l, name); err != nil {
			return nil, err
		}
		l.Trace(name)
	}
	type fig13Out struct {
		used   int
		levels []float64
		pred   []float64 // per-level mean predicted latency
		obs    []float64 // per-level mean observed latency
		mape   float64
	}
	outs := make([]fig13Out, len(names))
	if err := l.sweep(len(names), func(c *sweep.Cell) error {
		name := names[c.Index]
		sys, err := systemFor(l, name)
		if err != nil {
			return err
		}
		sim := l.Simulator()
		cfg := fig13Config(name)
		windows := testWindows(l, name, sys.Model.Cfg.SeqLen, 40)
		if len(windows) == 0 {
			return nil
		}
		levels := sys.Model.Cfg.Percentiles
		predSum := make([]float64, len(levels))
		obsSum := make([]float64, len(levels))
		var preds, obs []float64
		used := 0
		for _, w := range windows {
			tgt, err := sim.Evaluate(w, cfg, levels)
			if err != nil {
				continue
			}
			p := sys.Model.Predict(w, cfg)
			for i := range levels {
				predSum[i] += p.Percentiles[i]
				obsSum[i] += tgt.Percentiles[i]
				preds = append(preds, p.Percentiles[i])
				obs = append(obs, tgt.Percentiles[i])
			}
			used++
		}
		if used == 0 {
			return nil
		}
		for i := range levels {
			predSum[i] /= float64(used)
			obsSum[i] /= float64(used)
		}
		outs[c.Index] = fig13Out{used: used, levels: levels, pred: predSum, obs: obsSum, mape: stats.MAPE(preds, obs)}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, name := range names {
		out := outs[i]
		if out.used == 0 {
			continue
		}
		t := r.AddTable(
			fmt.Sprintf("%s (%s, %d windows)", name, fig13Config(name).String(), out.used),
			"percentile", "predicted", "observed")
		for j, lv := range out.levels {
			t.AddRow(fmtF(lv), fmtMS(out.pred[j]), fmtMS(out.obs[j]))
		}
		r.AddNote("%s latency MAPE: %s", name, fmtPct(out.mape))
	}
	r.AddNote("expected shape: predicted percentile curves hug the observed ones on all four traces; MAPE within a few percent")
	return r, nil
}

// Fig14 reproduces Fig. 14: attention-score visualization. The paper
// concludes that the model (trained only on Azure) attends to the parts of
// the sequence with the longest interarrival gaps; we quantify that with the
// rank correlation between attention and gap length and the overlap of the
// top-attention positions with the top-gap positions.
func Fig14(l *Lab) (*Report, error) {
	r := &Report{ID: "fig14", Title: "Attention scores vs interarrival gaps (Azure-trained model, no fine-tuning)"}
	base, err := l.BaseSystem()
	if err != nil {
		return nil, err
	}
	t := r.AddTable("", "trace", "windows", "corr(attention, log gap)", "top5_overlap")
	names := []string{"azure", "twitter", "alibaba", "synthetic"}
	for _, name := range names {
		l.Trace(name) // generate serially so cells only read
	}
	type fig14Out struct {
		windows       int
		corr, overlap float64
	}
	outs := make([]fig14Out, len(names))
	// AttentionScores only reads the shared base model, so each trace is one
	// parallel cell.
	if err := l.sweep(len(names), func(c *sweep.Cell) error {
		windows := testWindows(l, names[c.Index], base.Model.Cfg.SeqLen, 20)
		var corrs, overlaps []float64
		for _, w := range windows {
			scores := base.Model.AttentionScores(w)
			gaps := make([]float64, len(w))
			for i, x := range w {
				gaps[i] = math.Log(math.Max(x, 1e-7))
			}
			corrs = append(corrs, pearson(scores, gaps))
			overlaps = append(overlaps, topKOverlap(scores, gaps, 5))
		}
		if len(corrs) == 0 {
			return nil
		}
		outs[c.Index] = fig14Out{windows: len(corrs), corr: stats.Mean(corrs), overlap: stats.Mean(overlaps)}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, name := range names {
		if outs[i].windows == 0 {
			continue
		}
		t.AddRow(name, fmt.Sprintf("%d", outs[i].windows),
			fmtF(outs[i].corr), fmtPct(outs[i].overlap*100))
	}
	r.AddNote("expected shape: positive correlation on every trace — high attention aligns with long-gap positions, including on unseen (OOD) traces")
	return r, nil
}

// pearson returns the Pearson correlation coefficient of two equal-length
// series.
func pearson(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	ma, mb := stats.Mean(a), stats.Mean(b)
	var num, da, db float64
	for i := 0; i < n; i++ {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

// topKOverlap returns the fraction of the top-k positions of a that are also
// among the top-k positions of b.
func topKOverlap(a, b []float64, k int) float64 {
	if k <= 0 || len(a) != len(b) || len(a) < k {
		return 0
	}
	top := func(xs []float64) map[int]bool {
		idx := make([]int, len(xs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] > xs[idx[j]] })
		set := make(map[int]bool, k)
		for _, i := range idx[:k] {
			set[i] = true
		}
		return set
	}
	ta, tb := top(a), top(b)
	match := 0
	for i := range ta {
		if tb[i] {
			match++
		}
	}
	return float64(match) / float64(k)
}
