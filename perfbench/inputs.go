package main

import (
	"fmt"
	"math/rand"
	"sort"

	"concord/internal/contracts"
	"concord/internal/core"
	"concord/internal/synth"
)

// corpus is one generated role split by the seed into training and test
// devices. Some test devices carry a planted mutation; clean keeps the
// unmutated text of every test device, aligned with test.
type corpus struct {
	role   string
	train  []core.Source
	test   []core.Source
	clean  []core.Source
	meta   []core.Source
	truth  *synth.Manifest
	plants []plant
}

// plant is one seeded synth.Mutate site.
type plant struct {
	file string
	kind synth.Mutation
	line int
}

// roleSplit sizes one corpus: the role is generated at scale, and the
// seed picks train training devices and test test devices from it,
// planting plants of the test devices.
type roleSplit struct {
	role        string
	scale       float64
	train, test int
	plants      int
}

func sources(fs []synth.File) []core.Source {
	out := make([]core.Source, len(fs))
	for i, f := range fs {
		out[i] = core.Source{Name: f.Name, Text: f.Text}
	}
	return out
}

// makeCorpus generates sp.role and splits it with rng. synth is
// deterministic per (role, device index), so the seed alone decides
// which devices land where and which sites are mutated.
func makeCorpus(rng *rand.Rand, sp roleSplit) (*corpus, error) {
	role, ok := synth.RoleByName(sp.role, sp.scale)
	if !ok {
		return nil, fmt.Errorf("unknown role %s", sp.role)
	}
	ds := synth.Generate(role)
	if sp.train+sp.test > len(ds.Configs) {
		return nil, fmt.Errorf("%s@%v has %d devices, want %d", sp.role, sp.scale, len(ds.Configs), sp.train+sp.test)
	}
	all := sources(ds.Configs)
	perm := rng.Perm(len(all))
	pick := func(idx []int) []core.Source {
		out := make([]core.Source, len(idx))
		for i, j := range idx {
			out[i] = all[j]
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
		return out
	}
	c := &corpus{role: sp.role, train: pick(perm[:sp.train]), clean: pick(perm[sp.train : sp.train+sp.test]),
		meta: sources(ds.Meta), truth: ds.Truth}
	c.test, c.plants = plantSome(rng, c.clean, sp.plants, rng.Intn(len(synth.Mutations())))
	return c, nil
}

// plantSome returns a copy of clean with n seeded devices mutated, the
// kinds taken in turn from synth.Mutations starting at kind offset off
// (a device offering no site for its kind takes the next kind).
func plantSome(rng *rand.Rand, clean []core.Source, n, off int) ([]core.Source, []plant) {
	out := append([]core.Source(nil), clean...)
	var plants []plant
	kinds := synth.Mutations()
	for j, i := range rng.Perm(len(out))[:n] {
		for k := 0; k < len(kinds); k++ {
			kind := kinds[(off+j+k)%len(kinds)]
			text, line, ok := synth.Mutate(string(out[i].Text), kind, rng.Int63())
			if ok {
				out[i].Text = []byte(text)
				plants = append(plants, plant{file: out[i].Name, kind: kind, line: line})
				break
			}
		}
	}
	return out, plants
}

// precision is the generator-manifest precision of a learned set,
// summed over categories.
type precision struct{ tp, total int }

func (p *precision) add(truth *synth.Manifest, set *contracts.Set) {
	for _, cat := range contracts.Categories() {
		if _, tp, total, ok := truth.Precision(set, cat); ok {
			p.tp += tp
			p.total += total
		}
	}
}

func (p precision) value() float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.tp) / float64(p.total)
}

// detection counts planted configurations flagged by a check report,
// per mutation kind. A plant is detected when its file carries a
// violation its clean twin does not (same contract, counted with
// multiplicity); it is line-exact when one of those new violations is
// on the mutated line.
type detection struct {
	planted, detected, lineExact int
	byKind                       map[synth.Mutation][2]int
}

// violationKeys counts violations per file and contract.
func violationKeys(vs []contracts.Violation) map[string]map[string]int {
	out := make(map[string]map[string]int)
	for _, v := range vs {
		if out[v.File] == nil {
			out[v.File] = make(map[string]int)
		}
		out[v.File][v.ContractID]++
	}
	return out
}

func (d *detection) add(plants []plant, planted, clean []contracts.Violation) {
	if d.byKind == nil {
		d.byKind = make(map[synth.Mutation][2]int)
	}
	cleanKeys := violationKeys(clean)
	byFile := make(map[string][]contracts.Violation)
	for _, v := range planted {
		byFile[v.File] = append(byFile[v.File], v)
	}
	for _, p := range plants {
		counts := make(map[string]int)
		for _, v := range byFile[p.file] {
			counts[v.ContractID]++
		}
		hit, exact := false, false
		for _, v := range byFile[p.file] {
			if counts[v.ContractID] > cleanKeys[p.file][v.ContractID] {
				hit = true
				exact = exact || v.Line == p.line
			}
		}
		k := d.byKind[p.kind]
		k[0]++
		d.planted++
		if hit {
			k[1]++
			d.detected++
		}
		if exact {
			d.lineExact++
		}
		d.byKind[p.kind] = k
	}
}

// report fills planted_detected and the per-kind oracle counts.
func (d *detection) report(m metrics) {
	if d.planted > 0 {
		m.set("planted_detected", float64(d.detected)/float64(d.planted), "frac")
	}
	for _, kind := range synth.Mutations() {
		k := d.byKind[kind]
		m.set("oracle."+string(kind)+".planted", float64(k[0]), "count")
		m.set("oracle."+string(kind)+".detected", float64(k[1]), "count")
	}
	m.set("oracle.line_exact", float64(d.lineExact), "count")
}
