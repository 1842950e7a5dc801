package fault_test

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/fault"
)

// FuzzFaultPlan: any spec Parse accepts runs. A 2-flow TDTCP run on the
// hybrid fabric (1 warm-up and 1 measured week) under the parsed plan must
// neither panic nor fail the frame-conservation and byte-ledger audits Run
// makes at its horizon. Parse refuses what the injector cannot run, NaN
// probabilities and durations whose draws overflow (the seeds); this holds
// the rest of the spec space to it.
func FuzzFaultPlan(f *testing.F) {
	for _, spec := range []string{
		"nloss=NaN", "drift=2000000h",
		"nloss=0.1,drop=0.01,flaps=2", "reorder=0.3,rdelay=1h,burst=3,drop=0.05",
		"drift=7us,flaps=1,flapfrac=0.5,ndup=0.5,ndelay=20us",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := fault.Parse(spec)
		if err != nil {
			return
		}
		_, err = experiments.Run(experiments.RunConfig{
			Variant: experiments.TDTCP, Scenario: experiments.Hybrid(), Flows: 2,
			WarmupWeeks: 1, MeasureWeeks: 1, Fault: &plan,
		})
		if err != nil {
			t.Fatalf("Parse(%q) = %+v runs into %v", spec, plan, err)
		}
	})
}
