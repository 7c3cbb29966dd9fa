// Package durable owns the repo's one crash-safe file-replacement routine:
// write a temp file next to the target, then rename it over the final name,
// so readers (and crashes) never observe a partially written file. The
// feature store's entries and the calibration log's torn-tail recovery
// persist through it.
//
// The guarantee is all-or-nothing visibility across a process crash (the
// crash tests kill -9 writers mid-write and check it). Durability across
// power loss is a non-goal for now: nothing is fsynced, so after an OS crash
// a rename may survive while its data does not. Adding fsync is a measured
// change, because it taxes every feature-store put.
package durable

import (
	"os"
	"path/filepath"

	"repro/internal/faultinject"
)

// TmpPrefix names the atomic-write temp files, so crash recovery can
// recognize and sweep the ones a kill stranded.
const TmpPrefix = ".tmp-"

// WriteFileAtomic replaces path with blob via a temp file + rename. The
// failpoint sub-sites under the caller's base site model the distinct
// failure points: temp-file creation ("<site>.create"), the data write
// ("<site>.write", a byte site that can tear), and the rename boundary
// ("<site>.rename" — a kill there strands a complete temp file without the
// final name ever appearing).
func WriteFileAtomic(site, path string, blob []byte) error {
	if err := faultinject.Hit(site + ".create"); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), TmpPrefix+"*")
	if err != nil {
		return err
	}
	payload := blob
	if v := faultinject.HitBytes(site+".write", int64(len(blob))); v.Err != nil {
		// A reported torn write: persist the allowed prefix (what a dying
		// disk would leave in the temp file), then fail — the temp file is
		// removed, so the tear never reaches the final name.
		if v.Allowed > 0 {
			tmp.Write(blob[:v.Allowed])
		}
		tmp.Close()
		os.Remove(tmp.Name())
		return v.Err
	} else if v.SilentTear {
		// A silent torn write (no fsync before rename): the prefix lands
		// and the rename proceeds as if everything were durable.
		payload = blob[:v.Allowed]
	}
	_, werr := tmp.Write(payload)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := faultinject.Hit(site + ".rename"); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
