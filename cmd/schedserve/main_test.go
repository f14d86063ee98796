package main

import (
	"strings"
	"testing"
)

// TestClusterFlagValidation pins the up-front exit-2 rules for the
// cluster flags: every conflicting combination must be rejected with a
// message naming the offending flag, and runnable combinations must
// pass. main() maps any validate error to fatalUsage (exit 2), so this
// table is exactly the CLI contract.
func TestClusterFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		flags   clusterFlags
		wantErr string // "" = must validate
	}{
		{"single machine default", clusterFlags{N: 0, Routing: "rr"}, ""},
		{"cluster happy path", clusterFlags{N: 1, Routing: "rr"}, ""},
		{"full cluster config", clusterFlags{
			N: 4, Routing: "affinity",
			Tenants: "gold:3;free:1:token:150000:2", Autoscale: "400000:2:1:1",
		}, ""},
		{"negative cluster", clusterFlags{N: -1, Routing: "rr"}, "-cluster must be >= 0"},
		{"routing without cluster", clusterFlags{N: 0, Routing: "least"}, "-routing needs -cluster >= 1"},
		{"tenants without cluster", clusterFlags{N: 0, Routing: "rr", Tenants: "gold:1"}, "-tenants needs -cluster >= 1"},
		{"autoscale without cluster", clusterFlags{N: 0, Routing: "rr", Autoscale: "400000:2:1"}, "-autoscale needs -cluster >= 1"},
		{"cluster with closed loop", clusterFlags{N: 2, Routing: "rr", Closed: 4}, "conflicts with -closed"},
		{"cluster with sweep", clusterFlags{N: 2, Routing: "rr", Sweep: "100,1000"}, "conflicts with -sweep"},
		{"cluster with fault", clusterFlags{N: 2, Routing: "rr", Fault: "coreloss:50"}, "-fault is not supported in -cluster mode"},
		{"cluster with deadline", clusterFlags{N: 2, Routing: "rr", Deadline: 1000}, "-deadline is not supported in -cluster mode"},
		{"cluster with retries", clusterFlags{N: 2, Routing: "rr", Retries: 1}, "-retries is not supported in -cluster mode"},
		{"cluster with backoff", clusterFlags{N: 2, Routing: "rr", Backoff: 100}, "-backoff is not supported in -cluster mode"},
		{"cluster with sample", clusterFlags{N: 2, Routing: "rr", Sample: 100}, "-sample is not supported in -cluster mode"},
		{"unknown routing", clusterFlags{N: 2, Routing: "bogus"}, "unknown routing policy"},
		{"bad tenant spec", clusterFlags{N: 2, Routing: "rr", Tenants: "gold"}, "tenant"},
		{"bad scale spec", clusterFlags{N: 2, Routing: "rr", Autoscale: "400000:2:9"}, "scale"},
		{"scale min exceeds fleet", clusterFlags{N: 2, Routing: "rr", Autoscale: "400000:2:1:3"}, "-autoscale min 3 exceeds -cluster 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tenants, scale, err := tc.flags.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate: accepted invalid combination (tenants=%v scale=%v)", tenants, scale)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate: error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestClusterFlagValidationParses checks that validate returns the
// parsed specs, not just a verdict: the caller hands these straight to
// cluster.Run, so they must reflect the flag strings.
func TestClusterFlagValidationParses(t *testing.T) {
	tenants, scale, err := clusterFlags{
		N: 4, Routing: "affinity",
		Tenants:   "gold:3;free:1:token:150000:2",
		Autoscale: "400000:2:1:1:900000",
	}.validate()
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if len(tenants) != 2 || tenants[0].Name != "gold" || tenants[0].Weight != 3 ||
		tenants[1].Name != "free" || tenants[1].Admission == "" {
		t.Fatalf("tenants parsed wrong: %+v", tenants)
	}
	if scale == nil || scale.Epoch != 400000 || scale.Up != 2 || scale.Down != 1 ||
		scale.Min != 1 || scale.LatHigh != 900000 {
		t.Fatalf("scale parsed wrong: %+v", scale)
	}
}

// TestSweepFlagValidation pins the -sweep usage errors: each flag sweep
// mode cannot take is rejected by name, and with several set the error
// names the same one — the first of -fault, -deadline, -retries, -backoff
// — on every call.
func TestSweepFlagValidation(t *testing.T) {
	cases := []struct {
		name              string
		sweep, fault      string
		deadline, backoff int64
		retries           int
		wantErr           string // "" = must validate
	}{
		{"no sweep", "", "coreloss:50", 1000, 10, 1, ""},
		{"plain sweep", "100,1000", "", 0, 0, 0, ""},
		{"fault", "100,1000", "coreloss:50", 0, 0, 0, "-fault is not supported in -sweep mode"},
		{"deadline", "100,1000", "", 1000, 0, 0, "-deadline is not supported in -sweep mode"},
		{"retries", "100,1000", "", 0, 0, 1, "-retries is not supported in -sweep mode"},
		{"backoff", "100,1000", "", 0, 10, 0, "-backoff is not supported in -sweep mode"},
		{"fault deadline retries", "100,1000", "coreloss:50", 1000, 0, 1, "-fault is not supported"},
		{"deadline retries backoff", "100,1000", "", 1000, 10, 1, "-deadline is not supported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A map-ordered check named a different flag from run to run;
			// repeat the call so that any such order shows up here.
			for i := 0; i < 20; i++ {
				err := validateSweep(tc.sweep, tc.fault, tc.deadline, tc.retries, tc.backoff)
				if tc.wantErr == "" {
					if err != nil {
						t.Fatalf("validateSweep: unexpected error %v", err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("call %d: validateSweep = %v, want an error mentioning %q", i, err, tc.wantErr)
				}
			}
		})
	}
}
