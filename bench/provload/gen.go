package main

import (
	"fmt"
	"strconv"

	"repro/internal/provenance"
)

// Family names one of the four run shapes the workloads mix.
type Family int

// The run shapes. Chain is deep (one execution extending a training
// chain), Fanin is wide (one execution consuming eight earlier chain
// artifacts), Diamond is an 8-execution ETL run with a split and a join,
// and FMRI is the 15-execution Provenance-Challenge pipeline shape of
// internal/interop/fmri.go.
const (
	Chain Family = iota
	Fanin
	Diamond
	FMRI
	numFamilies
)

var familyLetter = [numFamilies]string{"c", "f", "d", "m"}

func (f Family) String() string {
	return [numFamilies]string{"chain", "fanin", "diamond", "fmri"}[f]
}

// A Fanin run consumes artifacts from the first faninDepth links of the
// first faninChains chains, so every workload that ingests Fanin runs
// seeds at least that chain prefix first and no fan-in edge dangles.
const (
	faninChains = 32
	faninDepth  = 8
	faninWidth  = 8
)

// Gen generates run logs as a pure function of (seed, family, stream,
// index): no clock, no global counter, no map iteration reaches the
// output, so the same arguments marshal to the same bytes in any process.
// The seed enters every ID through tag, so two seeds share no entity.
type Gen struct {
	seed uint64
	tag  string
}

// NewGen returns the generator for a workload seed.
func NewGen(seed uint64) Gen {
	return Gen{seed: seed, tag: strconv.FormatUint(mix(seed, 0x9e37)%(36*36*36*36*36), 36)}
}

// mix is splitmix64 over a running state: the only source of variation.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// h hashes the run coordinates plus a per-use salt.
func (g Gen) h(f Family, stream, index int, salt uint64) uint64 {
	return mix(mix(mix(mix(g.seed, uint64(f)), uint64(stream)), uint64(index)), salt)
}

func (g Gen) runID(f Family, stream, index int) string {
	return fmt.Sprintf("r-%s-%s%d-%d", g.tag, familyLetter[f], stream, index)
}

func (g Gen) execID(f Family, stream, index, j int) string {
	return fmt.Sprintf("e-%s-%s%d-%d-%d", g.tag, familyLetter[f], stream, index, j)
}

func (g Gen) artID(f Family, stream, index int, part string) string {
	return fmt.Sprintf("a-%s-%s%d-%d-%s", g.tag, familyLetter[f], stream, index, part)
}

// ChainHead is the raw input at the root of chain c: every artifact and
// execution of the chain is in its dependents closure.
func (g Gen) ChainHead(c int) string { return fmt.Sprintf("a-%s-c%d-head", g.tag, c) }

// ChainTail is the artifact run (Chain, c, i) generates.
func (g Gen) ChainTail(c, i int) string { return g.artID(Chain, c, i, "ckpt") }

// builder accumulates one run log with a strictly increasing event clock.
type builder struct {
	g     Gen
	l     *provenance.RunLog
	seq   uint64
	arts  map[string]bool
	f     Family
	s, i  int
	execN int
}

func (g Gen) begin(f Family, stream, index int, workflow string) *builder {
	id := g.runID(f, stream, index)
	hv := g.h(f, stream, index, 1)
	b := &builder{g: g, f: f, s: stream, i: index, arts: map[string]bool{}, l: &provenance.RunLog{
		Run: provenance.Run{
			ID:           id,
			WorkflowID:   workflow,
			WorkflowHash: fmt.Sprintf("%016x", mix(g.seed, uint64(len(workflow))+uint64(f)<<8)),
			Agent:        fmt.Sprintf("agent-%d", hv%8),
			Status:       provenance.StatusOK,
		},
		Annotations: []provenance.Annotation{},
	}}
	b.event(provenance.Event{Kind: provenance.EventRunStarted})
	b.l.Run.Start = b.seq
	return b
}

func (b *builder) event(ev provenance.Event) {
	b.seq++
	ev.Seq = b.seq
	ev.RunID = b.l.Run.ID
	b.l.Events = append(b.l.Events, ev)
}

// artifact declares an artifact in this log once. The content fields
// depend only on the artifact's ID, so a log that re-declares another
// run's artifact as its input declares it identically.
func (b *builder) artifact(id, typ string) {
	if b.arts[id] {
		return
	}
	b.arts[id] = true
	hv := mix(b.g.seed, uint64(len(id)))
	for _, c := range []byte(id) {
		hv = mix(hv, uint64(c))
	}
	b.l.Artifacts = append(b.l.Artifacts, &provenance.Artifact{
		ID: id, Type: typ, RunID: b.l.Run.ID,
		ContentHash: fmt.Sprintf("%016x", hv),
		Size:        int64(1024 + hv%(1<<20)),
	})
}

// exec records one execution that uses ins and generates outs (each a
// pair of artifact ID and type).
func (b *builder) exec(module, moduleType string, params map[string]string, ins, outs [][2]string) {
	id := b.g.execID(b.f, b.s, b.i, b.execN)
	hv := b.g.h(b.f, b.s, b.i, 100+uint64(b.execN))
	b.execN++
	e := &provenance.Execution{
		ID: id, RunID: b.l.Run.ID, ModuleID: module, ModuleType: moduleType,
		Params: params, Status: provenance.StatusOK, Machine: fmt.Sprintf("node-%d", hv%4),
		WallNanos: int64(1e6 + hv%(1<<28)),
	}
	// One execution in sixteen fails, as in experiments.E17SynthLog, so
	// selective status predicates have something to select.
	if b.f == Diamond && (hv>>32)%16 == 0 {
		e.Status = provenance.StatusFailed
		e.Error = "synthetic failure"
	}
	b.l.Executions = append(b.l.Executions, e)
	b.event(provenance.Event{Kind: provenance.EventExecutionStarted, ExecutionID: id})
	e.Start = b.seq
	for k, in := range ins {
		b.artifact(in[0], in[1])
		b.event(provenance.Event{Kind: provenance.EventArtifactUsed, ExecutionID: id, ArtifactID: in[0], Port: "in" + strconv.Itoa(k)})
	}
	for k, out := range outs {
		b.artifact(out[0], out[1])
		b.event(provenance.Event{Kind: provenance.EventArtifactGen, ExecutionID: id, ArtifactID: out[0], Port: "out" + strconv.Itoa(k)})
	}
	b.event(provenance.Event{Kind: provenance.EventExecutionEnded, ExecutionID: id})
	e.End = b.seq
}

func (b *builder) end() *provenance.RunLog {
	b.event(provenance.Event{Kind: provenance.EventRunEnded})
	b.l.Run.End = b.seq
	for _, e := range b.l.Executions {
		if e.Status == provenance.StatusFailed {
			b.l.Run.Status = provenance.StatusFailed
		}
	}
	return b.l
}

// Run generates the log of run (f, stream, index).
func (g Gen) Run(f Family, stream, index int) *provenance.RunLog {
	switch f {
	case Chain:
		return g.chain(stream, index)
	case Fanin:
		return g.fanin(stream, index)
	case Diamond:
		return g.diamond(stream, index)
	case FMRI:
		return g.fmri(stream, index)
	}
	panic(fmt.Sprintf("provload: unknown family %d", f))
}

// chain: one training step consuming the chain's current tail.
func (g Gen) chain(c, i int) *provenance.RunLog {
	b := g.begin(Chain, c, i, "wf-train")
	in := [2]string{g.ChainHead(c), "dataset"}
	if i > 0 {
		in = [2]string{g.ChainTail(c, i-1), "checkpoint"}
	}
	hv := g.h(Chain, c, i, 2)
	b.exec("train", "Train", map[string]string{
		"epoch": strconv.Itoa(i),
		"lr":    strconv.FormatFloat(float64(1+hv%100)/1e4, 'g', -1, 64),
	}, [][2]string{in}, [][2]string{{g.ChainTail(c, i), "checkpoint"}})
	return b.end()
}

// fanin: one execution consuming eight artifacts of distinct chains.
func (g Gen) fanin(s, i int) *provenance.RunLog {
	b := g.begin(Fanin, s, i, "wf-ensemble")
	hv := g.h(Fanin, s, i, 2)
	var ins [][2]string
	for k := 0; k < faninWidth; k++ {
		// 5 is coprime with faninChains, so the eight chains are distinct.
		c := int((hv + uint64(k)*5) % faninChains)
		j := int(g.h(Fanin, s, i, 10+uint64(k)) % faninDepth)
		ins = append(ins, [2]string{g.ChainTail(c, j), "checkpoint"})
	}
	b.exec("merge", "Merge", map[string]string{"k": strconv.Itoa(faninWidth)},
		ins, [][2]string{{g.artID(Fanin, s, i, "ens"), "ensemble"}})
	return b.end()
}

// diamond: ingest → clean → three parallel transforms → join → stat →
// publish. Module types are experiments.E17SynthLog's.
func (g Gen) diamond(s, i int) *provenance.RunLog {
	b := g.begin(Diamond, s, i, fmt.Sprintf("wf-etl-%d", i%4))
	a := func(part, typ string) [2]string { return [2]string{g.artID(Diamond, s, i, part), typ} }
	raw, in, clean := a("raw", "blob"), a("in", "blob"), a("clean", "blob")
	b.exec("m0", "Ingest", map[string]string{"source": fmt.Sprintf("feed-%d", g.h(Diamond, s, i, 3)%16)}, [][2]string{raw}, [][2]string{in})
	b.exec("m1", "Clean", nil, [][2]string{in}, [][2]string{clean})
	var parts [][2]string
	for k, typ := range []string{"Contour", "Render", "Stat"} {
		out := a("part"+strconv.Itoa(k), []string{"blob", "image", "blob"}[k])
		b.exec("m"+strconv.Itoa(2+k), typ, nil, [][2]string{clean}, [][2]string{out})
		parts = append(parts, out)
	}
	joined, stats, report := a("joined", "blob"), a("stats", "blob"), a("report", "image")
	b.exec("m5", "Join", nil, parts, [][2]string{joined})
	b.exec("m6", "Stat", nil, [][2]string{joined}, [][2]string{stats})
	b.exec("m7", "Publish", nil, [][2]string{joined, stats}, [][2]string{report})
	return b.end()
}

// fmri: align_warp×4 → reslice×4 → softmean → slicer×3 → convert×3, with
// the artifact types of internal/interop/fmri.go.
func (g Gen) fmri(s, i int) *provenance.RunLog {
	b := g.begin(FMRI, s, i, "wf-fmri")
	a := func(part, typ string) [2]string { return [2]string{g.artID(FMRI, s, i, part), typ} }
	ref := a("ref", "anatomyImage")
	var resliced [][2]string
	for k := 0; k < 4; k++ {
		n := strconv.Itoa(k)
		b.exec("align_warp"+n, "AlignWarp", map[string]string{"m": "12"},
			[][2]string{a("anat"+n, "anatomyImage"), ref}, [][2]string{a("warp"+n, "warpParams")})
	}
	for k := 0; k < 4; k++ {
		n := strconv.Itoa(k)
		res := a("resl"+n, "reslicedImage")
		b.exec("reslice"+n, "Reslice", nil,
			[][2]string{a("warp"+n, "warpParams"), a("anat"+n, "anatomyImage")}, [][2]string{res})
		resliced = append(resliced, res)
	}
	atlas := a("atlas", "atlasImage")
	b.exec("softmean", "Softmean", nil, resliced, [][2]string{atlas})
	for _, axis := range []string{"x", "y", "z"} {
		slice, gfx := a("slice-"+axis, "atlasSlice"), a("gfx-"+axis, "atlasGraphic")
		b.exec("slicer-"+axis, "Slicer", map[string]string{"axis": axis}, [][2]string{atlas}, [][2]string{slice})
		b.exec("convert-"+axis, "Convert", nil, [][2]string{slice}, [][2]string{gfx})
	}
	return b.end()
}

// generated returns the IDs of the artifacts a log's own executions
// produced: the roots read workloads draw from.
func generated(l *provenance.RunLog) []string {
	var out []string
	for _, ev := range l.Events {
		if ev.Kind == provenance.EventArtifactGen {
			out = append(out, ev.ArtifactID)
		}
	}
	return out
}
