package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/raft"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// The failover workload runs the paper's Fig. 12 trial through the
// public cluster API: N=25 peers in five subgroups of five, 15 ms links,
// election timeouts U(T, 2T); the FedAvg leader crashes and the trial
// ends when its subgroup's new leader has joined the FedAvg layer.
const (
	foSubgroups = 5
	foSize      = 5
	foLatency   = 15 * simnet.Millisecond
	foLimit     = 120 * simnet.Second
)

// foTimeouts are the paper's T values in ms; trials cycle through them.
var foTimeouts = []int{50, 100, 150, 200}

// foTrial is one trial's input: the timeout T and the simulation seed.
type foTrial struct {
	tMs  int
	seed int64
}

func foPlan(seed int64, i int) foTrial {
	return foTrial{tMs: foTimeouts[i%len(foTimeouts)], seed: seedFor(seed, i)}
}

// foOutcome is what one trial measured.
type foOutcome struct {
	failoverMs  float64 // virtual ms from the crash to the new leader's join
	msgs, bytes int64   // simulated Raft traffic over the whole trial
	wall        float64 // seconds, the whole trial
	setupS      float64 // seconds, cluster.New and Bootstrap
}

func newFailoverSystem(p foTrial, reg *telemetry.Registry) (*cluster.System, error) {
	return cluster.New(cluster.Options{
		NumSubgroups:    foSubgroups,
		SubgroupSize:    foSize,
		ElectionTickMin: p.tMs,
		ElectionTickMax: 2 * p.tMs,
		Latency:         foLatency,
		Seed:            p.seed,
		Telemetry:       reg,
	})
}

// runFailoverTrial builds and bootstraps a deployment, lets it settle
// for 4T, crashes the FedAvg leader and waits for recovery. It returns
// the deployment as the trial left it. op is the trial id for spans; reg
// may be nil.
func runFailoverTrial(p foTrial, tr *tracer, op int, reg *telemetry.Registry) (*foOutcome, *cluster.System, error) {
	out := &foOutcome{}
	root := tr.begin("round", 0, op)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("cluster.new", root, op)
	sys, err := newFailoverSystem(p, reg)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("cluster.bootstrap", root, op)
	err = sys.Bootstrap(60 * simnet.Second)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	out.setupS = time.Since(t0).Seconds()
	sp = tr.begin("cluster.steady", root, op)
	sys.Sim.RunFor(simnet.Duration(4*p.tMs) * simnet.Millisecond)
	tr.end(sp)

	sp = tr.begin("cluster.recover", root, op)
	victim := sys.FedAvgLeader()
	if victim == raft.None {
		tr.end(sp)
		return nil, nil, fmt.Errorf("no FedAvg leader after bootstrap")
	}
	victimSub := sys.Peer(victim).Subgroup
	crashAt := sys.Sim.Now()
	if err := sys.CrashPeer(victim); err != nil {
		tr.end(sp)
		return nil, nil, err
	}
	leader, _, err := sys.WaitSubgroupLeader(victimSub, victim, foLimit)
	if err != nil {
		tr.end(sp)
		return nil, nil, err
	}
	joinAt, err := sys.WaitJoined(leader, foLimit)
	tr.end(sp)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, nil, err
	}
	// WaitSubgroupLeader never returns the crashed leader itself; the
	// leader it found must still be up when it has joined.
	if sys.Peer(leader).Down() {
		return nil, nil, fmt.Errorf("new subgroup leader %d is down", leader)
	}
	out.failoverMs = simnet.Duration(joinAt - crashAt).Ms()
	out.wall = wall
	for g := 0; g < sys.NumSubgroups(); g++ {
		m, b := sys.SubgroupNet(g).OfferedTraffic()
		out.msgs += m
		out.bytes += b
	}
	m, b := sys.FedNet().OfferedTraffic()
	out.msgs += m
	out.bytes += b
	return out, sys, nil
}

var foRaftCounters = []string{"raft/entries_committed", "raft/elections_started", "raft/elections_won"}

func runFailover(seed int64, seconds float64, tr *tracer) (*runStats, error) {
	st := &runStats{}
	// Every trial sets up a deployment from scratch, as the paper's trials
	// do: set-up is cluster.New and Bootstrap inside each timed trial. The
	// warm-up trial's deployment is held so heap_live_mb measures one.
	var held *cluster.System
	var outs []*foOutcome
	var perOp []map[string]float64
	var totalBytes int64
	const warmup = 1
	timeLoop(st, seconds, warmup, func(i int) (float64, error) {
		var reg *telemetry.Registry
		var m0 runtime.MemStats
		if tr != nil {
			at := time.Now()
			reg = telemetry.New()
			m0 = readMem()
			tr.charge(i, at)
		}
		out, sys, err := runFailoverTrial(foPlan(seed, i), tr, i, reg)
		if err != nil {
			return 0, fmt.Errorf("trial %d: %w", i, err)
		}
		if i < warmup {
			held = sys
			return out.wall, nil
		}
		outs = append(outs, out)
		st.setups = append(st.setups, out.setupS)
		totalBytes += out.bytes
		if tr != nil {
			at := time.Now()
			d := diffMem(m0, readMem())
			v := map[string]float64{
				"runtime.allocs_per_round": d.mallocs,
				"runtime.gc_pause_s":       d.pauseS,
				"simnet.msgs":              float64(out.msgs),
				"simnet.bytes":             float64(out.bytes),
			}
			for _, name := range foRaftCounters {
				v[layerName(name)] = float64(reg.Counter(name).Value())
			}
			perOp = append(perOp, v)
			tr.charge(i, at)
		}
		return out.wall, nil
	})
	runtime.KeepAlive(held)
	if len(outs) == 0 {
		return st, nil
	}
	st.bytesPerOp = float64(totalBytes) / float64(len(outs))

	// Correctness: the same seed reproduces every failover sample
	// exactly. Each timed trial is run again, untimed, on GOMAXPROCS
	// workers (trials share nothing).
	ms := make([]float64, len(outs))
	again := make([]*foOutcome, len(outs))
	errs := make([]error, len(outs))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(outs); k += workers {
				again[k], _, errs[k] = runFailoverTrial(foPlan(seed, warmup+k), nil, warmup+k, nil)
			}
		}(w)
	}
	wg.Wait()
	for k, out := range outs {
		ms[k] = out.failoverMs
		if errs[k] != nil || again[k].failoverMs != out.failoverMs || again[k].bytes != out.bytes {
			st.failed++
			st.notes = append(st.notes, fmt.Sprintf("FAILED trial %d does not reproduce: %v ms, then %+v (%v)", warmup+k, out.failoverMs, again[k], errs[k]))
			break
		}
	}
	p50, p95 := quantile(ms, 0.5), quantile(ms, 0.95)
	st.notes = append(st.notes,
		fmt.Sprintf("failover_ms_p50 %.6g ms, failover_ms_p95 %.6g ms (virtual, n=%d trials)", p50, p95, len(ms)),
		fmt.Sprintf("trials_per_s %.6g 1/s (n=%d trials)", float64(len(st.samples))/sum(st.samples), len(st.samples)))
	if tr != nil {
		st.layer = meanOf(perOp)
		ops := timedOps(warmup, len(outs))
		st.layer["cluster.new_s"] = meanAt(tr.perOp("cluster.new"), ops)
		st.layer["cluster.bootstrap_s"] = meanAt(tr.perOp("cluster.bootstrap"), ops)
		st.layer["cluster.steady_s"] = meanAt(tr.perOp("cluster.steady"), ops)
		st.layer["cluster.recover_s"] = meanAt(tr.perOp("cluster.recover"), ops)
		st.layer["raft.election_win_ratio"] = st.layer["raft.elections_won"] / st.layer["raft.elections_started"]
		st.layer["cluster.failover_ms_p50"] = p50
		st.layer["cluster.failover_ms_p95"] = p95
		st.layer["trace.overhead_s"] = tr.overheadS(ops)
	}
	return st, nil
}
