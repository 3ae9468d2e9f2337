package dse

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/stratum"
)

// Genome encodes one point of the joint schedule design space:
//
//   - Methods: per-layer partitioning-method override (Table 1 row),
//     generalizing the fixed h1–h5 choice. MethodAuto defers to the
//     heuristics; only overrides partition.MethodSupported admits are
//     ever generated.
//   - Boundary: per-layer stratum boundary override, generalizing the
//     fixed h6–h8 cutoff into a tunable fusion-depth vector (Break
//     forces a boundary, Fuse merges through the h8 cost check).
//   - Scale: per-core partition-weight multipliers drawn from a fixed
//     quantized grid. The paper's profile-guided rebalancing (Section
//     3.1.3) is one of the moves on it.
//
// The all-auto, unit-scale genome lowers to exactly the heuristic
// baseline: its derived Options fingerprint-match the plain
// configuration, so evaluating it is a compile-cache hit.
type Genome struct {
	// Methods is indexed by LayerID; nil or short means all-auto.
	Methods []partition.MethodID
	// Boundary is indexed by LayerID; nil or short means all-auto.
	Boundary []stratum.Boundary
	// Scale has one grid value per core; nil means unit scales.
	Scale []float64
}

// scaleGrid is the quantized ladder of per-core weight multipliers.
// Quantizing keeps the genome space finite and revisit-friendly: a
// rebalancing move that lands near a previous candidate snaps onto it
// and costs a dedupe (or compile-cache) hit instead of a fresh
// compile. unitScale indexes the 1.0 entry.
var scaleGrid = []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.25, 1.4, 1.6}

const unitScale = 4

// scaleIndex returns the grid index nearest to v (ties toward the
// lower index, keeping snapping deterministic).
func scaleIndex(v float64) int {
	best, bestD := 0, math.Inf(1)
	for i, g := range scaleGrid {
		if d := math.Abs(g - v); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// newGenome returns the baseline genome for a graph on n cores: every
// gene at its heuristic default.
func newGenome(g *graph.Graph, n int) Genome {
	gen := Genome{
		Methods:  make([]partition.MethodID, g.Len()),
		Boundary: make([]stratum.Boundary, g.Len()),
		Scale:    make([]float64, n),
	}
	for i := range gen.Scale {
		gen.Scale[i] = scaleGrid[unitScale]
	}
	return gen
}

// clone returns a deep copy.
func (g Genome) clone() Genome {
	return Genome{
		Methods:  append([]partition.MethodID(nil), g.Methods...),
		Boundary: append([]stratum.Boundary(nil), g.Boundary...),
		Scale:    append([]float64(nil), g.Scale...),
	}
}

// key returns a canonical string identity for dedupe maps.
func (g Genome) key() string {
	var b strings.Builder
	for _, m := range g.Methods {
		fmt.Fprintf(&b, "%d,", int(m))
	}
	b.WriteByte('|')
	for _, x := range g.Boundary {
		fmt.Fprintf(&b, "%d,", int(x))
	}
	b.WriteByte('|')
	for _, s := range g.Scale {
		fmt.Fprintf(&b, "%d,", scaleIndex(s))
	}
	return b.String()
}

// Options lowers the genome onto a base configuration. Vectors that
// are entirely at their defaults stay nil, so the baseline genome's
// Options are bit-identical (and fingerprint-identical) to the plain
// heuristic configuration.
func (g Genome) Options(base core.Options) core.Options {
	o := base
	for _, m := range g.Methods {
		if m != partition.MethodAuto {
			o.ForceMethods = append([]partition.MethodID(nil), g.Methods...)
			break
		}
	}
	for _, x := range g.Boundary {
		if x != stratum.BoundaryAuto {
			o.StratumBoundary = append([]stratum.Boundary(nil), g.Boundary...)
			break
		}
	}
	for _, s := range g.Scale {
		if s != scaleGrid[unitScale] {
			o.WeightScale = append([]float64(nil), g.Scale...)
			break
		}
	}
	return o
}

// Overrides counts the genes deviating from the heuristic default, for
// compact reporting.
func (g Genome) Overrides() (methods, boundaries, scales int) {
	for _, m := range g.Methods {
		if m != partition.MethodAuto {
			methods++
		}
	}
	for _, x := range g.Boundary {
		if x != stratum.BoundaryAuto {
			boundaries++
		}
	}
	for _, s := range g.Scale {
		if s != scaleGrid[unitScale] {
			scales++
		}
	}
	return
}

// prng is splitmix64, matching the determinism conventions of
// internal/loadgen: fast, host-independent, and allocation-free, so
// same-seed searches are byte-identical at any worker count.
type prng uint64

func (p *prng) next() uint64 {
	*p += 0x9e3779b97f4a7c15
	z := uint64(*p)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// intn returns a deterministic value in [0, n). n must be positive.
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// moveSpace precomputes, per graph, which genes each move type may
// touch: layers with at least one supported non-auto method, and
// layers whose edge to their single consumer satisfies the structural
// half of h6 (the only edges a Boundary gene can influence).
type moveSpace struct {
	methodTargets []graph.LayerID
	methodChoices map[graph.LayerID][]partition.MethodID
	fuseTargets   []graph.LayerID
}

func newMoveSpace(g *graph.Graph) *moveSpace {
	ms := &moveSpace{methodChoices: make(map[graph.LayerID][]partition.MethodID)}
	for _, l := range g.Layers() {
		if l.IsInput() {
			continue
		}
		var choices []partition.MethodID
		for _, m := range []partition.MethodID{partition.MethodSpatial, partition.MethodChannel} {
			if ok, _ := partition.MethodSupported(m, l); ok {
				choices = append(choices, m)
			}
		}
		if len(choices) > 0 {
			ms.methodTargets = append(ms.methodTargets, l.ID)
			ms.methodChoices[l.ID] = append(choices, partition.MethodAuto)
		}
		if users := g.Users(l.ID); len(users) == 1 {
			if len(g.Layer(users[0]).Inputs) == 1 {
				ms.fuseTargets = append(ms.fuseTargets, l.ID)
			}
		}
	}
	return ms
}

// mutate returns a copy of parent with one gene perturbed. work is the
// parent's per-core occupancy profile (nil when unknown); when
// present, one of the move types is the damped profile-guided
// rebalancing step applied to the whole scale vector: each core's
// scale moves by sqrt(mean/work[c]), so a core whose busiest engine
// runs long gets less of every layer.
func (ms *moveSpace) mutate(rng *prng, parent Genome, work []float64) Genome {
	child := parent.clone()
	// Move weights: methods and boundaries carry the search; scale
	// steps and the profile-guided rebalance refine the balance.
	move := rng.intn(100)
	switch {
	case move < 35 && len(ms.methodTargets) > 0:
		id := ms.methodTargets[rng.intn(len(ms.methodTargets))]
		choices := ms.methodChoices[id]
		cur := child.Methods[id]
		pick := choices[rng.intn(len(choices))]
		if pick == cur {
			pick = choices[(scanIndex(choices, cur)+1)%len(choices)]
		}
		child.Methods[id] = pick
	case move < 65 && len(ms.fuseTargets) > 0:
		id := ms.fuseTargets[rng.intn(len(ms.fuseTargets))]
		all := []stratum.Boundary{stratum.BoundaryAuto, stratum.BoundaryBreak, stratum.BoundaryFuse}
		cur := child.Boundary[id]
		pick := all[rng.intn(len(all))]
		if pick == cur {
			pick = all[(int(cur)+1)%len(all)]
		}
		child.Boundary[id] = pick
	case move < 85 && len(work) == len(child.Scale) && len(work) > 0:
		// Rebalance move: the damped profile-guided update, snapped
		// onto the scale grid.
		var mean float64
		for _, w := range work {
			mean += w
		}
		mean /= float64(len(work))
		for c := range child.Scale {
			w := work[c]
			if w < 1 {
				w = 1
			}
			child.Scale[c] = scaleGrid[scaleIndex(child.Scale[c]*math.Sqrt(mean/w))]
		}
	default:
		c := rng.intn(len(child.Scale))
		i := scaleIndex(child.Scale[c])
		step := 1
		if rng.intn(2) == 0 {
			step = -1
		}
		j := i + step
		if j < 0 || j >= len(scaleGrid) {
			j = i - step
		}
		child.Scale[c] = scaleGrid[j]
	}
	return child
}

// randomize applies k random mutations (without profile information),
// seeding a restart away from the baseline.
func (ms *moveSpace) randomize(rng *prng, base Genome, k int) Genome {
	g := base
	for i := 0; i < k; i++ {
		g = ms.mutate(rng, g, nil)
	}
	return g
}

func scanIndex(xs []partition.MethodID, v partition.MethodID) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}
