package main

import (
	"fmt"
	"io"

	"repro/internal/calib"
)

// calibReport replays a persisted calibration log into the same rolling
// report a live server computes — decay runs on record timestamps, so the
// offline aggregates match the server's byte-for-byte over the same log.
func calibReport(path string, asJSON bool, stdout, stderr io.Writer) error {
	rep, dropped, err := calib.ReplayReport(path)
	if err != nil {
		return err
	}
	if dropped > 0 {
		fmt.Fprintf(stderr, "calibration log has a torn tail: %d unreadable trailing bytes ignored (a crashed writer; the next append-mode open truncates them)\n", dropped)
	}
	if asJSON {
		return calib.WriteReportJSON(stdout, rep)
	}
	calib.RenderReport(stdout, rep)
	return nil
}
