package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/sac"
	"repro/internal/transport"
)

// The xlayer_10k workload repeats one X-layer aggregation (Sec. VII-C)
// over the "10k" scale tier: degree 4, depth 8, 13,120 peers and 4,373
// subgroup SACs, with 64-parameter models, so the cost per subgroup
// dominates.
const (
	xlTier   = "10k"
	xlDim    = 64
	xlSetups = 25
)

// xlState is one X-layer deployment: the tree, every peer's model, the
// plaintext mean the aggregation must reproduce, and the SAC messages one
// aggregation must send. Every subgroup of g peers runs one g-of-g SAC
// in leader mode: each peer sends its g−1 foreign shares, and the g−1
// non-leaders send the leader their subtotals.
type xlState struct {
	topo                    *core.MultiLayerTopology
	models                  [][]float64
	mean                    []float64
	shareMsgs, subtotalMsgs int64
}

func newXLState(tier costmodel.ScaleTier, seed int64) (*xlState, error) {
	topo, err := core.BuildMultiLayerTopology(tier.Degree, tier.Layers)
	if err != nil {
		return nil, err
	}
	s := &xlState{topo: topo, models: make([][]float64, topo.N), mean: make([]float64, xlDim)}
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, topo.N*xlDim)
	for i := range flat {
		flat[i] = 2*rng.Float64() - 1
	}
	for p := range s.models {
		s.models[p] = flat[p*xlDim : (p+1)*xlDim : (p+1)*xlDim]
		for j, v := range s.models[p] {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= float64(topo.N)
	}
	for x := 1; x <= topo.Layers; x++ {
		groups, err := topo.Subgroups(x)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			n := int64(len(g))
			s.shareMsgs += n * (n - 1)
			s.subtotalMsgs += n - 1
		}
	}
	return s, nil
}

func runXLayer(seed int64, seconds float64, tr *tracer) (*runStats, error) {
	st := &runStats{}
	var tier costmodel.ScaleTier
	for _, t := range costmodel.ScaleTiers() {
		if t.Name == xlTier {
			tier = t
		}
	}
	var s *xlState
	for i := 0; i < xlSetups; i++ {
		s = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = newXLState(tier, seed); err != nil {
			return nil, fmt.Errorf("xlayer_10k set-up: %w", err)
		}
		st.setups = append(st.setups, time.Since(t0).Seconds())
	}
	units, err := costmodel.MultiLayerUnits(tier.Degree, tier.Layers)
	if err != nil {
		return nil, err
	}
	wantBytes := units * 8 * xlDim
	rng := rand.New(rand.NewSource(seedFor(seed, 0)))
	counter := transport.NewCounter()
	opts := core.MultiLayerOptions{Workers: runtime.GOMAXPROCS(0), Scratch: &core.MultiLayerScratch{}}

	var perOp []map[string]float64
	var sacRuns int
	var totalBytes int64
	const warmup = 1
	timeLoop(st, seconds, warmup, func(i int) (float64, error) {
		var m0 runtime.MemStats
		var kinds map[string]int64
		if tr != nil {
			at := time.Now()
			m0, kinds = readMem(), kindBytes(counter)
			tr.charge(i, at)
		}
		shares0, subtotals0 := counter.Messages(sac.KindShare), counter.Messages(sac.KindSubtotal)
		root := tr.begin("round", 0, i)
		sp := tr.begin("core.aggregate", root, i)
		t0 := time.Now()
		res, err := core.AggregateMultiLayerOpts(s.topo, s.models, nil, rng, counter, opts)
		wall := time.Since(t0).Seconds()
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		if tr != nil && i >= warmup {
			// The aggregation's own workers have returned: the delta is
			// the aggregation's alone.
			at := time.Now()
			d := diffMem(m0, readMem())
			v := map[string]float64{
				"runtime.alloc_mb.aggregate": d.allocMB,
				"runtime.allocs_per_round":   d.mallocs,
				"runtime.gc_pause_s":         d.pauseS,
				"core.sac_runs":              float64(res.Aggregations),
			}
			addKindBytes(v, kinds, kindBytes(counter))
			perOp = append(perOp, v)
			tr.charge(i, at)
		}
		sacRuns = res.Aggregations

		// Correctness: the plaintext mean, the Eq. 10 traffic exactly, and
		// the share and subtotal messages of one full SAC per subgroup of
		// the tree.
		if d := maxAbsDiff(res.Global, s.mean); !(d <= 1e-9) {
			return 0, fmt.Errorf("aggregation %d: global model differs from plaintext mean by %g", i, d)
		}
		if res.Bytes != wantBytes {
			return 0, fmt.Errorf("aggregation %d: %d bytes, Eq. 10 gives %d", i, res.Bytes, wantBytes)
		}
		shares, subtotals := counter.Messages(sac.KindShare)-shares0, counter.Messages(sac.KindSubtotal)-subtotals0
		if shares != s.shareMsgs || subtotals != s.subtotalMsgs {
			return 0, fmt.Errorf("aggregation %d: %d share and %d subtotal messages, the tree's subgroups need %d and %d",
				i, shares, subtotals, s.shareMsgs, s.subtotalMsgs)
		}
		if i >= warmup {
			totalBytes += res.Bytes
		}
		return wall, nil
	})
	if len(st.samples) > 0 {
		st.bytesPerOp = float64(totalBytes) / float64(len(st.samples))
	}
	st.notes = append(st.notes, fmt.Sprintf("tier %s: %d peers, %d subgroup SACs, %d parameters, %d workers",
		tier.Name, s.topo.N, sacRuns, xlDim, opts.Workers))
	if tr != nil {
		st.layer = meanOf(perOp)
		ops := timedOps(warmup, len(st.samples))
		st.layer["core.aggregate_s"] = meanAt(tr.perOp("core.aggregate"), ops)
		st.layer["core.round_s_per_sac"] = st.layer["core.aggregate_s"] / float64(sacRuns)
		st.layer["trace.overhead_s"] = tr.overheadS(ops)
	}
	return st, nil
}
