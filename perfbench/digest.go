package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"antgrass"
	"antgrass/internal/core"
	"antgrass/internal/oracle"
)

// solution is a solved points-to relation over a program's original
// variables, whichever engine produced it.
type solution interface {
	numVars() int
	// rep groups variables whose sets are provably identical, so a set
	// is hashed once per group; the digest does not depend on it.
	rep(v uint32) uint32
	pointsTo(v uint32) []uint32
}

type snapshotSolution struct{ s *antgrass.Snapshot }

func (s snapshotSolution) numVars() int               { return s.s.NumVars() }
func (s snapshotSolution) rep(v uint32) uint32        { return s.s.Rep(v) }
func (s snapshotSolution) pointsTo(v uint32) []uint32 { return s.s.PointsTo(v) }

type coreSolution struct {
	r *core.Result
	n int
}

func (s coreSolution) numVars() int               { return s.n }
func (s coreSolution) rep(v uint32) uint32        { return s.r.Rep(v) }
func (s coreSolution) pointsTo(v uint32) []uint32 { return s.r.PointsToSlice(v) }

type mapSolution []map[uint32]bool

func (s mapSolution) numVars() int        { return len(s) }
func (s mapSolution) rep(v uint32) uint32 { return v }
func (s mapSolution) pointsTo(v uint32) []uint32 {
	out := make([]uint32, 0, len(s[v]))
	for x := range s[v] {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// setHash is the 64-bit FNV-1a hash of a sorted points-to set.
func setHash(set []uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(set)))
	h.Write(b[:])
	for _, x := range set {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	return h.Sum64()
}

// digestSolution returns the SHA-256 digest of the full solution: every
// variable's set hash, in variable order.
func digestSolution(s solution) string {
	n := s.numVars()
	byRep := make(map[uint32]uint64)
	d := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	d.Write(b[:])
	for v := 0; v < n; v++ {
		r := s.rep(uint32(v))
		h, ok := byRep[r]
		if !ok {
			h = setHash(s.pointsTo(uint32(v)))
			byRep[r] = h
		}
		binary.LittleEndian.PutUint64(b[:], h)
		d.Write(b[:])
	}
	return hex.EncodeToString(d.Sum(nil))
}

// digestProgram hashes a constraint system independently of constraint
// order and variable names: the universe size, each variable's span, and
// the sorted constraint list.
func digestProgram(p *antgrass.Program) string {
	cs := append([]antgrass.Constraint(nil), p.Constraints...)
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Offset < b.Offset
	})
	d := sha256.New()
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		d.Write(b[:])
	}
	put(uint32(p.NumVars))
	for v := 0; v < p.NumVars; v++ {
		put(p.SpanOf(uint32(v)))
	}
	for _, c := range cs {
		put(uint32(c.Kind))
		put(c.Dst)
		put(c.Src)
		put(c.Offset)
	}
	return hex.EncodeToString(d.Sum(nil))
}

// digestCallGraph hashes CallGraph's sorted edge list.
func digestCallGraph(edges []antgrass.CallEdge) string {
	d := sha256.New()
	for _, e := range edges {
		fmt.Fprintf(d, "%s\x00%s\x00%d\x00%t\n", e.Caller, e.Callee, e.Line, e.Indirect)
	}
	return hex.EncodeToString(d.Sum(nil))
}

// digestModRef hashes every function's MOD and REF sets in name order.
func digestModRef(m *antgrass.ModRefInfo) string {
	d := sha256.New()
	for _, side := range []map[string][]antgrass.VarID{m.Mod, m.Ref} {
		names := make([]string, 0, len(side))
		for fn := range side {
			names = append(names, fn)
		}
		sort.Strings(names)
		for _, fn := range names {
			fmt.Fprintf(d, "%s\x00%v\n", fn, side[fn])
		}
		d.Write([]byte{0xff})
	}
	return hex.EncodeToString(d.Sum(nil))
}

// reference is the expected answer for one workload input. A reference
// is accepted only when every listed solver family produced the same
// solution digest.
type reference struct {
	// Program is digestProgram of the input the digests belong to.
	Program  string `json:"program"`
	Solution string `json:"solution"`
	// CallGraph, ModRef and ModRefTransitive are go-std's client digests.
	CallGraph        string `json:"callgraph,omitempty"`
	ModRef           string `json:"modref,omitempty"`
	ModRefTransitive string `json:"modref_transitive,omitempty"`
	// Go is the toolchain go-std's digests were made with: the standard
	// library's source, and so its constraints, change between releases.
	Go       string   `json:"go,omitempty"`
	Families []string `json:"families"`
}

//go:embed refs.json
var refsJSON []byte

// storedRefs returns the references committed in refs.json, by workload.
func storedRefs() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// family is one solver configuration the reference generator runs.
// Families that agree share no propagation code: the LCD worklist, the
// asynchronous owner engine and Heintze–Tardieu each propagate in their
// own files, and the oracle shares nothing with the solvers at all.
type family struct {
	name string
	opts antgrass.Options
}

var (
	famLCD      = family{"lcd", antgrass.Options{Algorithm: antgrass.LCD}}
	famLCDAsync = family{"lcd-async", antgrass.Options{Algorithm: antgrass.LCD, Async: true, Workers: 1}}
	famHT       = family{"ht", antgrass.Options{Algorithm: antgrass.HT}}
)

// oracleFamily names oracle.Reference, the map-based evaluator shared
// with the differential tests; it is run only where it finishes in
// reasonable time (emacs and go-std, not ghostscript or linux).
const oracleFamily = "oracle"

// makeReference solves p with every family and returns the agreed
// solution digest, or an error naming the families that disagree.
func makeReference(ctx context.Context, p *antgrass.Program, fams []family) (reference, *antgrass.Result, error) {
	ref := reference{Program: digestProgram(p)}
	var agreed *antgrass.Result
	for _, f := range fams {
		res, err := antgrass.Solve(ctx, p, f.opts)
		if err != nil {
			return ref, nil, fmt.Errorf("reference %s: %w", f.name, err)
		}
		d := digestSolution(snapshotSolution{res.Snapshot()})
		if err := ref.agree(f.name, d); err != nil {
			return ref, nil, err
		}
		agreed = res
	}
	return ref, agreed, nil
}

// oracleDigest is the solution digest oracle.Reference gives for p.
func oracleDigest(p *antgrass.Program) string {
	d := digestSolution(mapSolution(oracle.Reference(p)))
	return d
}

func (r *reference) agree(name, digest string) error {
	if r.Solution != "" && r.Solution != digest {
		return fmt.Errorf("reference families disagree: %s gives %.12s, %v gave %.12s", name, digest, r.Families, r.Solution)
	}
	r.Solution = digest
	r.Families = append(r.Families, name)
	return nil
}

// writeRefs stores refs as perfbench/refs.json under root.
func writeRefs(root string, refs map[string]reference) error {
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "refs.json"), append(b, '\n'), 0o644)
}
