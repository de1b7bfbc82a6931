package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"deepbat"
	"deepbat/internal/core"
	"deepbat/internal/surrogate"
	"deepbat/internal/trace"
)

// trained is what one pass produced: all of it is a pure function of the
// pinned training data and the code, so every pass must produce the same.
type trained struct {
	base, tuned []byte // model bytes after pre-training, after fine-tuning
	mapePct     float64
}

// trainRun is the train workload, set up: the pinned training inputs, and
// this seed's Azure and Alibaba days, which the trained models are then put
// in control of.
type trainRun struct {
	e                *env
	data, firstHour  *trace.Trace
	azureDay, oodDay *trace.Trace

	first   trained
	epochMS []float64
}

func newTrain(e *env) (*trainRun, error) {
	r := &trainRun{e: e}
	var err error
	if r.data, err = pretrainTrace(e); err != nil {
		return nil, err
	}
	ood, err := paperTrace(e, "alibaba", trainSeed)
	if err != nil {
		return nil, err
	}
	r.firstHour = ood.FirstHours(1)
	if r.azureDay, err = paperTrace(e, "azure", e.seed); err != nil {
		return nil, err
	}
	r.oodDay, err = paperTrace(e, "alibaba", e.seed)
	return r, err
}

// pretrained is one pre-training taken apart, with what each step cost.
type pretrained struct {
	sys     *deepbat.System
	val     *deepbat.Dataset
	mapePct float64 // EvalMAPE on the validation split

	buildS, fitS       float64
	epochMS            []float64 // per epoch, from Model.Train's progress callback
	mallocs, allocated uint64    // by Model.Train
}

// pretrain is deepbat.Train taken apart so that its steps can be timed:
// build the labeled dataset, fit the normalisation, train, and install the
// robustness margin from the validation split.
func pretrain(e *env, tr *trace.Trace, root, op int) (*pretrained, error) {
	opts := labOptions(e)
	p := &pretrained{}
	id := e.tr.begin("deepbat.BuildDataset", "surrogate", root, op)
	t0 := time.Now()
	ds, err := deepbat.BuildDataset(tr, opts)
	p.buildS = time.Since(t0).Seconds()
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	train, val := ds.Split(0.1)
	m := deepbat.NewModel(opts.Model)
	id = e.tr.begin("Model.FitNormalization", "surrogate", root, op)
	t0 = time.Now()
	m.FitNormalization(train)
	p.fitS = time.Since(t0).Seconds()
	e.tr.end(id)

	tc := opts.Train
	tc.SLO = opts.SLO
	finite := true
	n0, b0 := mallocs()
	id = e.tr.begin("Model.Train", "surrogate", root, op)
	last := time.Now()
	tc.Progress = func(_ int, trainLoss, valLoss float64) {
		now := time.Now()
		p.epochMS = append(p.epochMS, now.Sub(last).Seconds()*1000)
		last = now
		finite = finite && !math.IsNaN(trainLoss+valLoss) && !math.IsInf(trainLoss+valLoss, 0)
	}
	_, err = m.Train(train, val, tc)
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	n1, b1 := mallocs()
	p.mallocs, p.allocated = n1-n0, b1-b0
	e.checks.expect(finite, "train: a training loss was not finite")

	p.sys = deepbat.NewSystem(m, opts)
	g := math.Min(m.UnderpredictionQuantile(val, p.sys.Opts.Pct, 0.9), 0.5)
	m.GammaHint = g
	p.sys.SetGamma(g)
	p.val, p.mapePct = val, m.EvalMAPE(val)
	return p, nil
}

// pass pre-trains from scratch on the first half of the Azure trace, then
// fine-tunes that model on Alibaba's first hour (Sections IV-B, IV-C).
func (r *trainRun) pass(i, root int) error {
	p, err := pretrain(r.e, r.data, root, i)
	if err != nil {
		return err
	}
	r.epochMS = append(r.epochMS, p.epochMS...)
	got := trained{mapePct: p.mapePct}
	if got.base, err = modelBytes(p.sys); err != nil {
		return err
	}
	id := r.e.tr.begin("System.FineTune", "surrogate", root, i)
	err = p.sys.FineTune(r.firstHour, r.e.sc.ftSamples)
	r.e.tr.end(id)
	if err != nil {
		return err
	}
	if got.tuned, err = modelBytes(p.sys); err != nil {
		return err
	}
	if r.first.base == nil {
		r.first = got
	}
	r.e.checks.expect(got.mapePct == r.first.mapePct && bytes.Equal(got.base, r.first.base) && bytes.Equal(got.tuned, r.first.tuned),
		"train: pass %d trained a different model (val MAPE %v, an earlier pass %v)", i, got.mapePct, r.first.mapePct)
	return nil
}

func (r *trainRun) reset() { r.epochMS = nil }

// control puts a saved model in control of one trace-day.
func (r *trainRun) control(model []byte, day *trace.Trace, into *dayTotals) (failed int, err error) {
	m, err := surrogate.Load(bytes.NewReader(model))
	if err != nil {
		return 0, err
	}
	sys := deepbat.NewSystem(m, labOptions(r.e))
	dec := &timedDecider{inner: sys.Decider(), seqLen: m.Cfg.SeqLen}
	res, err := sys.Replay(day.Timestamps, dec, core.DefaultReplayOptions(sys.Opts.SLO))
	if err != nil {
		return 0, err
	}
	into.add(res)
	return dec.failed, nil
}

func runTrain(e *env) (*outcome, error) {
	r, setupS, err := medianSetup(e, func() (*trainRun, error) { return newTrain(e) })
	if err != nil {
		return nil, err
	}
	l, err := e.measure(r)
	if err != nil {
		return nil, err
	}

	// What the training is for: the pre-trained model's decisions over this
	// seed's Azure day, the fine-tuned model's over its Alibaba day.
	var served dayTotals
	failedBase, err := r.control(r.first.base, r.azureDay, &served)
	if err != nil {
		return nil, err
	}
	failedTuned, err := r.control(r.first.tuned, r.oodDay, &served)
	if err != nil {
		return nil, err
	}
	failed := failedBase + failedTuned
	e.checks.expect(failed == 0, "train: %d Decide calls of the trained models failed", failed)

	passes := len(l.passMS) + len(l.tracedMS)
	out := &outcome{metrics: served.metrics(setupS), attempted: served.requests, failed: failed}
	e.finish(out, l, r.epochMS, "one training epoch (forward, backward, Adam, validation loss), from Model.Train's progress callback",
		float64(passes*e.sc.trainSamples*e.sc.trainEpochs),
		"pre-training sample-epochs completed, with build + fit + train + fine-tune all on the clock")
	out.notes = append(out.notes, fmt.Sprintf("%d samples x %d epochs at SeqLen %d, Workers 1, then FineTune on %d samples; val MAPE %.4f %%; training data pinned to seed %d; cost and goodput: the pre-trained model controlling this seed's Azure day, the tuned one its Alibaba day (%d requests)",
		e.sc.trainSamples, e.sc.trainEpochs, e.sc.seqLen, e.sc.ftSamples, r.first.mapePct, trainSeed, served.requests))
	return out, nil
}
