// Learn-side payload codecs: a learn worker folds its corpus slice into
// a mining.StatsAccumulator and ships the exported AccumulatorState as
// Result.State. Every string lives in a dictionary and is referenced by
// 1-based ID, so worker-process intern IDs never cross the wire; the
// parent rebinds every reference onto its own intern table through an
// intern.Translator at import. Export order is canonical, so equal
// accumulators always encode to equal bytes, and the state rides the
// same checksummed Result frame as check outcomes: a torn or corrupt
// frame errors at the frame layer and is retried by the pool, never
// half-applied.
package shardrpc

import (
	"concord/internal/artifact"
	"concord/internal/mining"
)

// --- AccumulatorState codec ---
//
// The record layouts mirror mining's Acc* types field for field. All
// counters are non-negative uvarints; string references are dictionary
// IDs whose range the importing miner validates (intern.Translator), so
// a corrupt ID surfaces as an import error rather than a panic; scores
// are fixed-width IEEE 754 bits.

func encodeAccState(w *artifact.Writer, st *mining.AccumulatorState) {
	w.Uvarint(uint64(st.NConfigs))
	w.Uvarint(uint64(len(st.Strings)))
	for _, s := range st.Strings {
		w.Str(s)
	}
	w.Uvarint(uint64(len(st.Patterns)))
	for _, p := range st.Patterns {
		w.Uvarint(uint64(p.Pattern))
		w.Uvarint(uint64(p.Display))
		w.Uvarint(uint64(p.ConfigCount))
		w.Uvarint(uint64(p.LineCount))
	}
	w.Uvarint(uint64(len(st.Pairs)))
	for _, p := range st.Pairs {
		w.Uvarint(uint64(p.First))
		w.Uvarint(uint64(p.Second))
		w.Uvarint(uint64(p.DisplayFirst))
		w.Uvarint(uint64(p.DisplaySecond))
		w.Uvarint(uint64(p.HoldConfigs))
	}
	w.Uvarint(uint64(len(st.FirstOccs)))
	for _, f := range st.FirstOccs {
		w.Uvarint(uint64(f.Pattern))
		w.Uvarint(uint64(f.Configs))
	}
	w.Uvarint(uint64(len(st.Types)))
	for _, t := range st.Types {
		w.Uvarint(uint64(t.Agnostic))
		w.Uvarint(uint64(t.Total))
		w.Uvarint(uint64(len(t.Params)))
		for _, p := range t.Params {
			w.Uvarint(uint64(len(p.Uses)))
			for _, u := range p.Uses {
				w.Uvarint(uint64(u.Type))
				w.Uvarint(uint64(u.Lines))
			}
		}
	}
	w.Uvarint(uint64(len(st.Seqs)))
	for _, s := range st.Seqs {
		w.Uvarint(uint64(s.Pattern))
		w.Uvarint(uint64(s.Idx))
		w.Uvarint(uint64(s.Display))
		w.Uvarint(uint64(s.ConfigsWith2))
		w.Uvarint(uint64(s.ConfigsSeq))
	}
	w.Uvarint(uint64(len(st.Uniqs)))
	for _, u := range st.Uniqs {
		w.Uvarint(uint64(u.Pattern))
		w.Uvarint(uint64(u.Idx))
		w.Uvarint(uint64(u.Display))
		w.Uvarint(uint64(u.TotalValues))
		w.Uvarint(uint64(len(u.Values)))
		for _, v := range u.Values {
			w.Uvarint(uint64(v.Key))
			w.Uvarint(uint64(v.Count))
		}
	}
	w.Uvarint(uint64(len(st.Constants)))
	for _, c := range st.Constants {
		w.Uvarint(uint64(c.Text))
		w.Uvarint(uint64(c.ConfigCount))
	}
	w.Uvarint(uint64(len(st.Cands)))
	for _, c := range st.Cands {
		w.Uvarint(uint64(c.P1))
		w.Uvarint(uint64(c.I1))
		w.Uvarint(uint64(c.T1))
		w.Uvarint(uint64(c.Rel))
		w.Uvarint(uint64(c.P2))
		w.Uvarint(uint64(c.I2))
		w.Uvarint(uint64(c.T2))
		w.Uvarint(uint64(c.Display1))
		w.Uvarint(uint64(c.Display2))
		w.Uvarint(uint64(c.HoldConfigs))
		w.Uvarint(uint64(len(c.Scores)))
		for _, s := range c.Scores {
			w.Uvarint(uint64(s.Key))
			w.F64(s.Score)
		}
	}
}

func decodeAccState(r *artifact.Reader) *mining.AccumulatorState {
	st := &mining.AccumulatorState{}
	st.NConfigs = int(r.Uvarint())
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		st.Strings = append(st.Strings, r.Str())
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		st.Patterns = append(st.Patterns, mining.AccPattern{
			Pattern: mining.StrID(r.Uvarint()), Display: mining.StrID(r.Uvarint()),
			ConfigCount: int(r.Uvarint()), LineCount: int(r.Uvarint()),
		})
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		st.Pairs = append(st.Pairs, mining.AccPair{
			First: mining.StrID(r.Uvarint()), Second: mining.StrID(r.Uvarint()),
			DisplayFirst: mining.StrID(r.Uvarint()), DisplaySecond: mining.StrID(r.Uvarint()),
			HoldConfigs: int(r.Uvarint()),
		})
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		st.FirstOccs = append(st.FirstOccs, mining.AccFirstOcc{
			Pattern: mining.StrID(r.Uvarint()), Configs: int(r.Uvarint()),
		})
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		t := mining.AccType{Agnostic: mining.StrID(r.Uvarint()), Total: int(r.Uvarint())}
		for j, np := 0, r.Count(); j < np && r.Err() == nil; j++ {
			p := mining.AccTypeParam{}
			for k, nu := 0, r.Count(); k < nu && r.Err() == nil; k++ {
				p.Uses = append(p.Uses, mining.AccTypeUse{
					Type: mining.StrID(r.Uvarint()), Lines: int(r.Uvarint()),
				})
			}
			t.Params = append(t.Params, p)
		}
		st.Types = append(st.Types, t)
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		st.Seqs = append(st.Seqs, mining.AccSeq{
			Pattern: mining.StrID(r.Uvarint()), Idx: int(r.Uvarint()),
			Display:      mining.StrID(r.Uvarint()),
			ConfigsWith2: int(r.Uvarint()), ConfigsSeq: int(r.Uvarint()),
		})
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		u := mining.AccUniq{
			Pattern: mining.StrID(r.Uvarint()), Idx: int(r.Uvarint()),
			Display: mining.StrID(r.Uvarint()), TotalValues: int(r.Uvarint()),
		}
		for j, nv := 0, r.Count(); j < nv && r.Err() == nil; j++ {
			u.Values = append(u.Values, mining.AccValueCount{
				Key: mining.StrID(r.Uvarint()), Count: int(r.Uvarint()),
			})
		}
		st.Uniqs = append(st.Uniqs, u)
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		st.Constants = append(st.Constants, mining.AccConstant{
			Text: mining.StrID(r.Uvarint()), ConfigCount: int(r.Uvarint()),
		})
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		c := mining.AccCand{
			P1: mining.StrID(r.Uvarint()), I1: int(r.Uvarint()),
			T1:  mining.StrID(r.Uvarint()),
			Rel: mining.StrID(r.Uvarint()),
			P2:  mining.StrID(r.Uvarint()), I2: int(r.Uvarint()),
			T2:       mining.StrID(r.Uvarint()),
			Display1: mining.StrID(r.Uvarint()), Display2: mining.StrID(r.Uvarint()),
			HoldConfigs: int(r.Uvarint()),
		}
		for j, ns := 0, r.Count(); j < ns && r.Err() == nil; j++ {
			c.Scores = append(c.Scores, mining.AccScore{
				Key: mining.StrID(r.Uvarint()), Score: r.F64(),
			})
		}
		st.Cands = append(st.Cands, c)
	}
	return st
}
