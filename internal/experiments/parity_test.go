package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Sharded-vs-sequential parity suite: the engine's worker count must be
// unobservable. Every run partitions events onto per-rack lanes regardless
// of RunConfig.Shards — lane assignment, lookahead windows, and the
// canonical (time, key) merge order are all shard-count-independent — so
// the JSONL trace, the result, and the frame-conservation ledger have to be
// byte-for-byte identical for shards ∈ {1, 2, 4, 8}. ci.sh runs this suite
// under -race, which patrols the one thing byte-comparison cannot: that the
// worker handoffs synchronize every cross-lane memory access.

// parityMatrixFault is the fault plan for the faulted half of the matrix:
// frame drops, corruption, notification loss, and schedule flaps together
// exercise every cross-lane seam (docks, per-rack fault substreams, the
// control plane's notification fan-out) under perturbation.
func parityMatrixFault() *fault.Plan {
	return &fault.Plan{NotifyLoss: 0.2, Drop: 0.01, Corrupt: 0.005, Flaps: 2, FlapFrac: 0.5}
}

// shardParityRun executes one traced TDTCP run at the given worker count and
// returns the JSONL trace plus the result.
func shardParityRun(t *testing.T, scenario Scenario, flows, shards int, plan *fault.Plan) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatAll)
	res, err := Run(RunConfig{
		Variant: TDTCP, Scenario: scenario, Flows: flows,
		WarmupWeeks: 1, MeasureWeeks: 1, Seed: 7,
		Shards: shards, Tracer: tr, Fault: plan,
	})
	if err != nil {
		t.Fatalf("Run (%d shards): %v", shards, err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes(), res
}

// TestShardParityMatrix is the tentpole's proof: byte-identical traces and
// identical conservation ledgers across {1, 2, 4, 8} shards, on the two-rack
// hybrid and the 8-rack rotor fabric, with and without the fault matrix.
func TestShardParityMatrix(t *testing.T) {
	for _, sc := range []struct {
		scenario Scenario
		flows    int
	}{
		{Hybrid(), 4},
		{MultiRack(8), 8},
	} {
		for _, faulted := range []bool{false, true} {
			name := fmt.Sprintf("%s/fault=%v", sc.scenario.Name, faulted)
			t.Run(name, func(t *testing.T) {
				var plan *fault.Plan
				if faulted {
					plan = parityMatrixFault()
				}
				base, baseRes := shardParityRun(t, sc.scenario, sc.flows, 1, plan)
				if len(base) == 0 {
					t.Fatal("sequential run produced no trace events")
				}
				for _, shards := range []int{2, 4, 8} {
					got, res := shardParityRun(t, sc.scenario, sc.flows, shards, plan)
					if !bytes.Equal(base, got) {
						d := firstDiffLine(base, got)
						t.Fatalf("%d shards diverge from sequential at line %d\nseq:     %s\nsharded: %s",
							shards, d, lineAt(base, d), lineAt(got, d))
					}
					if res.FramesSent != baseRes.FramesSent ||
						res.FramesDelivered != baseRes.FramesDelivered ||
						res.FramesMisrouted != baseRes.FramesMisrouted {
						t.Fatalf("%d shards: ledger (%d,%d,%d) != sequential (%d,%d,%d)",
							shards, res.FramesSent, res.FramesDelivered, res.FramesMisrouted,
							baseRes.FramesSent, baseRes.FramesDelivered, baseRes.FramesMisrouted)
					}
					if res.GoodputGbps != baseRes.GoodputGbps {
						t.Fatalf("%d shards: goodput %v != sequential %v",
							shards, res.GoodputGbps, baseRes.GoodputGbps)
					}
				}
			})
		}
	}
}

// TestShardParityWorkload extends the parity gate to the open-loop workload
// path: arrivals draw from the control lane's RNG and completions merge from
// per-lane done-lists, both of which must be worker-count-invariant.
func TestShardParityWorkload(t *testing.T) {
	run := func(shards int) ([]byte, *WorkloadResult) {
		var buf bytes.Buffer
		tr := trace.New(&buf, trace.CatAll)
		res, err := RunWorkload(WorkloadConfig{
			Variant: TDTCP, Scenario: MultiRack(8),
			WarmupWeeks: 1, MeasureWeeks: 1, Seed: 7,
			Shards: shards, Tracer: tr,
		})
		if err != nil {
			t.Fatalf("RunWorkload (%d shards): %v", shards, err)
		}
		if err := tr.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		return buf.Bytes(), res
	}
	base, baseRes := run(1)
	for _, shards := range []int{2, 4, 8} {
		got, res := run(shards)
		if !bytes.Equal(base, got) {
			d := firstDiffLine(base, got)
			t.Fatalf("%d shards diverge at line %d\nseq:     %s\nsharded: %s",
				shards, d, lineAt(base, d), lineAt(got, d))
		}
		if res.FlowsCompleted != baseRes.FlowsCompleted || res.FCT.N() != baseRes.FCT.N() {
			t.Fatalf("%d shards: completions %d/%d != sequential %d/%d",
				shards, res.FlowsCompleted, res.FCT.N(),
				baseRes.FlowsCompleted, baseRes.FCT.N())
		}
	}
}

// shardLedgerRun is a bare engine+network run (no Run wrapper) so the test
// can reach each Rack's slice of the conservation ledger.
func shardLedgerRun(t *testing.T, shards int) (*rdcn.Network, *sim.ShardedLoop) {
	t.Helper()
	const racks, hosts = 2, 4
	sc := Hybrid()
	engine := sim.NewSharded(3, racks, shards)
	ncfg := rdcn.DefaultConfig()
	ncfg.Racks = racks
	ncfg.HostsPerRack = hosts
	ncfg.TDNs = sc.TDNs
	ncfg.Schedule = sc.Schedule
	ncfg.VOQCap = sc.VOQCap
	ncfg.Cluster = engine
	net, err := rdcn.New(engine.Control(), ncfg)
	if err != nil {
		t.Fatalf("rdcn.New: %v", err)
	}
	for i := 0; i < hosts; i++ {
		f, err := BuildFlow(net, i, TDTCP, FlowOptions{})
		if err != nil {
			t.Fatalf("BuildFlow: %v", err)
		}
		f.Start(-1)
	}
	end := sim.Time(2 * sc.Schedule.Week())
	net.Start(end)
	engine.RunUntil(end)
	return net, engine
}

// TestShardPerRackLedger checks the conservation ledger at both granularities
// and across worker counts: each rack's slice (frames its hosts sent, frames
// terminating at it) must be identical for every shard count, the slices must
// sum to the network ledger, and the global conservation equation must hold.
func TestShardPerRackLedger(t *testing.T) {
	type ledger struct{ sent, delivered, misrouted uint64 }
	perShard := map[int][]ledger{}
	for _, shards := range []int{1, 2, 4, 8} {
		net, _ := shardLedgerRun(t, shards)
		var sums ledger
		var rl []ledger
		for _, rack := range net.Racks {
			s, d, m := rack.FrameLedger()
			rl = append(rl, ledger{s, d, m})
			sums.sent += s
			sums.delivered += d
			sums.misrouted += m
		}
		gs, gd, gm := net.FrameLedger()
		if sums != (ledger{gs, gd, gm}) {
			t.Fatalf("%d shards: per-rack ledgers %+v do not sum to global (%d,%d,%d)",
				shards, rl, gs, gd, gm)
		}
		if err := net.CheckConservation(); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		perShard[shards] = rl
	}
	for _, shards := range []int{2, 4, 8} {
		for r := range perShard[1] {
			if perShard[shards][r] != perShard[1][r] {
				t.Fatalf("rack %d ledger differs: %d shards %+v vs sequential %+v",
					r, shards, perShard[shards][r], perShard[1][r])
			}
		}
	}
}
