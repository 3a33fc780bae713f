package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"skyquery/internal/sphere"
	"skyquery/internal/survey"
	"skyquery/internal/value"
	"skyquery/internal/xmatch"
)

// fingerprint identifies a result set independent of row order: its row
// count plus the sum of per-row hashes.
type fingerprint struct {
	Rows int
	Sum  uint64
}

func (fp *fingerprint) add(row []value.Value) {
	fp.Rows++
	fp.Sum += hashRow(row)
}

func fingerprintOf(rows [][]value.Value) fingerprint {
	var fp fingerprint
	for _, r := range rows {
		fp.add(r)
	}
	return fp
}

// hashRow hashes a row's typed values; floats hash by their exact bits.
func hashRow(row []value.Value) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for _, v := range row {
		buf[0] = byte(v.Type())
		switch v.Type() {
		case value.IntType:
			binary.LittleEndian.PutUint64(buf[1:], uint64(v.AsInt()))
		case value.FloatType:
			f, _ := v.AsFloat()
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(f))
		case value.BoolType:
			buf[1] = 0
			if v.AsBool() {
				buf[1] = 1
			}
		default:
			binary.LittleEndian.PutUint64(buf[1:], 0)
		}
		h.Write(buf[:])
		if v.Type() == value.StringType {
			h.Write([]byte(v.AsString()))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// storedPos is the position a node computes for an observation: the
// stored (ra, dec) turned back into a unit vector.
func storedPos(o survey.Observation) sphere.Vec {
	return sphere.FromRaDec(o.Pos.RaDec())
}

// inArea returns the archive's observations inside the AREA that pass keep
// (nil keeps all), as brute-force matcher input.
func inArea(a *survey.Archive, area sphere.Cap, dropOut bool, keep func(survey.Observation) bool) xmatch.ArchiveSet {
	set := xmatch.ArchiveSet{Sigma: a.Config.SigmaArcsec, DropOut: dropOut}
	for _, o := range a.Obs {
		pos := storedPos(o)
		if area.Contains(pos) && (keep == nil || keep(o)) {
			set.Obs = append(set.Obs, xmatch.Observation{Pos: pos, Key: o.ObjectID})
		}
	}
	return set
}

// xmatchOracle answers the pool's cross-match query independently of the
// federation: xmatch.BruteForce over the AREA-restricted observations,
// with O.type = 'GALAXY' applied to O's observations and
// (O.flux - T.flux) > 2 applied to each match's keys.
func xmatchOracle(archives map[string]*survey.Archive, area sphere.Cap) fingerprint {
	o, t, p := archives["SDSS"], archives["TWOMASS"], archives["FIRST"]
	sets := []xmatch.ArchiveSet{
		inArea(o, area, false, func(ob survey.Observation) bool { return ob.Galaxy }),
		inArea(t, area, false, nil),
		inArea(p, area, true, nil),
	}
	oFlux, tFlux := fluxByID(o), fluxByID(t)
	var fp fingerprint
	for _, m := range xmatch.BruteForce(sets, threshold) {
		if oFlux[m.Keys[0]]-tFlux[m.Keys[1]] > 2 {
			fp.add([]value.Value{value.Int(m.Keys[0]), value.Int(m.Keys[1])})
		}
	}
	return fp
}

func fluxByID(a *survey.Archive) map[int64]float64 {
	m := make(map[int64]float64, len(a.Obs))
	for _, o := range a.Obs {
		m[o.ObjectID] = o.Flux
	}
	return m
}

// coneOracle answers the pass-through scan by filtering the survey's
// observations directly.
func coneOracle(a *survey.Archive, area sphere.Cap) fingerprint {
	var fp fingerprint
	for _, o := range a.Obs {
		if !area.Contains(storedPos(o)) || o.Flux <= 0 {
			continue
		}
		r := obsRow(o)
		fp.add([]value.Value{r[0], r[2], r[3], r[4], r[5]})
	}
	return fp
}

// computeOracle fills in every pool query's reference fingerprint.
func computeOracle(w workload, archives map[string]*survey.Archive, pool []poolQuery) {
	for i := range pool {
		if w.cone {
			pool[i].want = coneOracle(archives["SDSS"], pool[i].area)
		} else {
			pool[i].want = xmatchOracle(archives, pool[i].area)
		}
	}
}
