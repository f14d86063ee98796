// Command schedperf is the simulator's end-to-end benchmark. It runs four
// workloads as interleaved rounds, each run a fresh child process, and
// reads every run's wall time, CPU time and peak RSS from outside the
// process; it checks every run's simulated results against pinned
// digests. With -trace 1 it pairs every run with a traced run that
// reports where the host time goes, layer by layer.
//
// Usage:
//
//	go run ./schedperf [-workload all|NAME[,NAME]] [-seed N] [-rounds N | -seconds S] [-trace 0|1] [-out FILE]
//	go run ./schedperf -smoke
//	go run ./schedperf compare [-bench FILE] parent.json change.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import "os"

// childEnv names the workload a child process runs; the harness re-executes
// its own binary with it set.
const childEnv = "SCHEDPERF_CHILD"

func main() {
	if name := os.Getenv(childEnv); name != "" {
		os.Exit(childMain(name, os.Args[1:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(harnessMain(os.Args[1:]))
}
