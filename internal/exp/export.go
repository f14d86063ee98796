package exp

import (
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
)

// writeCSV writes records, header first, to a new file at path. It
// reports the first error of creating, writing, flushing or closing the
// file, so a CSV that did not reach the disk never reads as written.
func writeCSV(path string, records [][]string) error {
	f, err := os.Create(path)
	if err == nil {
		err = csv.NewWriter(f).WriteAll(records)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	return nil
}

// WriteCSV exports figure rows (one per grid cell, trimmed-mean metrics
// plus spread) for external plotting.
func WriteCSV(path string, rows []FigRow) error {
	records := [][]string{{
		"group", "scheduler",
		"active_s", "overhead_s", "empty_s", "total_s", "wall_s",
		"l3_misses", "l3_misses_std", "dram_stall_cycles", "reps",
	}}
	for _, r := range rows {
		records = append(records, []string{
			r.Group, r.Scheduler,
			fmtF(r.M.ActiveSec.Mean), fmtF(r.M.OverSec.Mean), fmtF(r.M.EmptySec.Mean),
			fmtF(r.M.TimeSec()), fmtF(r.M.WallSec.Mean),
			fmtF(r.M.L3Misses.Mean), fmtF(r.M.L3Misses.Std), fmtF(r.M.DRAMStall.Mean),
			strconv.Itoa(r.M.L3Misses.N),
		})
	}
	return writeCSV(path, records)
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// WriteFullGridCSV exports a full-scale grid report, one row per grid
// point: simulated results (wall cycles, misses, stalls) plus the
// host-side stage timings and memory high-water marks the grid
// amortization is judged by. record_s and write_s are zero (and
// record_shared true) for cells that reused another cell's recording.
// The status column distinguishes done/resumed cells from the pending
// and failed rows of a partial run, whose metric fields are empty.
func WriteFullGridCSV(path string, rep *FullGridReport) error {
	records := [][]string{{
		"kernel", "scheduler", "links", "status", "shards",
		"sharded_wall_cycles", "l3_misses", "dram_stall_cycles",
		"tasks", "strands", "op_bytes", "file_bytes",
		"record_shared", "record_s", "write_s", "sharded_s",
		"peak_window_bytes", "fingerprint",
	}}
	failed := make(map[GridCell]bool, len(rep.Failures))
	for _, fc := range rep.Failures {
		failed[fc.Cell] = true
	}
	for i, g := range rep.Grid {
		c := rep.Cells[i]
		if c == nil {
			status := "pending"
			if failed[g] {
				status = "failed"
			}
			records = append(records, []string{
				g.Kernel, g.Scheduler, strconv.Itoa(g.LinksUsed), status,
				"", "", "", "", "", "", "", "", "", "", "", "", "", "",
			})
			continue
		}
		status := "done"
		if c.Resumed {
			status = "resumed"
		}
		records = append(records, []string{
			c.Kernel, c.Scheduler, strconv.Itoa(c.LinksUsed), status, strconv.Itoa(c.Shards),
			strconv.FormatInt(c.ShardedWall, 10), strconv.FormatInt(c.L3Misses, 10),
			strconv.FormatInt(c.StallCycles, 10),
			strconv.FormatUint(c.Tasks, 10), strconv.FormatUint(c.Strands, 10),
			strconv.FormatInt(c.OpBytes, 10), strconv.FormatInt(c.TraceBytes, 10),
			strconv.FormatBool(c.RecordShared), fmtF(c.RecordSec), fmtF(c.WriteSec), fmtF(c.ShardedSec),
			strconv.FormatInt(c.PeakWindowB, 10), c.Fingerprint,
		})
	}
	return writeCSV(path, records)
}
