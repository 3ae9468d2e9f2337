package tenancy

import (
	"encoding/binary"
	"math"

	"repro/internal/arch"
	"repro/internal/bounded"
	"repro/internal/core"
)

// memoEntries bounds the co-run memo. An entry holds a float per
// inference retired in the epoch (at most about 19k under
// maxEpochInstrs: TinyCNN on one core is 54 instructions) and each
// tenant's checkpoint (at most 220 layer IDs for a Table 2 model), so
// a full memo holds under 45 MB, under 7 MB of 20 ms epochs.
const memoEntries = 256

// memo maps a clean co-run's structural key to what booking reads of
// it, one streamRun per tenant (shared by every hit: read-only),
// process-wide. A clean co-run cut at the epoch's end is a pure
// function of the platform, the epoch, and each stream's programs and
// global cores, and every tenancy program comes from the compile cache,
// whose CacheKey names it.
var memo = bounded.New[string, []streamRun](memoEntries)

// MemoStats reports cumulative co-run memo hits and misses. Co-runs
// that bypass the memo (a fault plan, a program compiled outside the
// cache, a context already done) count as neither.
func MemoStats() (hits, misses int64) { return memo.Stats() }

// ResetMemo drops every memoized co-run and zeroes the counters
// (benchmarks use it to measure first-seen schedules).
func ResetMemo() { memo.Reset() }

// coRunKey is the memo key of the admitted tenants' streams co-run for
// an epoch of D cycles: the arch hash core.Fingerprint uses, D, then
// per stream the CacheKeys of its resumed suffix (zero for none) and
// full program, and its global cores, length-prefixed. ok is false
// when a program has no CacheKey (it did not come through the compile
// cache), which bypasses the memo.
func coRunKey(a *arch.Arch, admitted []*tenantState, D float64) (key string, ok bool) {
	b := make([]byte, 0, 8*(2+len(admitted)*9))
	b = binary.LittleEndian.AppendUint64(b, core.ArchKey(a))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(D))
	for _, ts := range admitted {
		var resume core.CacheKey
		if ts.resume != nil {
			if resume = ts.resume.Compiled.Key; resume == (core.CacheKey{}) {
				return "", false
			}
		}
		full := ts.full.Compiled.Key
		if full == (core.CacheKey{}) {
			return "", false
		}
		for _, k := range []core.CacheKey{resume, full} {
			b = binary.LittleEndian.AppendUint64(b, k.Graph)
			b = binary.LittleEndian.AppendUint64(b, k.Arch)
			b = binary.LittleEndian.AppendUint64(b, k.Opt)
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(len(ts.cores)))
		for _, c := range ts.cores {
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
	}
	return string(b), true
}
