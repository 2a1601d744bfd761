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

import "concord/internal/mining"

// --- AccumulatorState codec ---
//
// The record layouts mirror mining's Acc* types field for field. All
// counters are non-negative uvarints; string references are dictionary
// IDs whose range the importing miner validates (intern.Translator), so
// a corrupt ID surfaces as an import error rather than a panic; scores
// are fixed-width IEEE 754 bits.

func encodeAccState(w *writer, st *mining.AccumulatorState) {
	w.uvarint(uint64(st.NConfigs))
	w.uvarint(uint64(len(st.Strings)))
	for _, s := range st.Strings {
		w.str(s)
	}
	w.uvarint(uint64(len(st.Patterns)))
	for _, p := range st.Patterns {
		w.uvarint(uint64(p.Pattern))
		w.uvarint(uint64(p.Display))
		w.uvarint(uint64(p.ConfigCount))
		w.uvarint(uint64(p.LineCount))
	}
	w.uvarint(uint64(len(st.Pairs)))
	for _, p := range st.Pairs {
		w.uvarint(uint64(p.First))
		w.uvarint(uint64(p.Second))
		w.uvarint(uint64(p.DisplayFirst))
		w.uvarint(uint64(p.DisplaySecond))
		w.uvarint(uint64(p.HoldConfigs))
	}
	w.uvarint(uint64(len(st.FirstOccs)))
	for _, f := range st.FirstOccs {
		w.uvarint(uint64(f.Pattern))
		w.uvarint(uint64(f.Configs))
	}
	w.uvarint(uint64(len(st.Types)))
	for _, t := range st.Types {
		w.uvarint(uint64(t.Agnostic))
		w.uvarint(uint64(t.Total))
		w.uvarint(uint64(len(t.Params)))
		for _, p := range t.Params {
			w.uvarint(uint64(len(p.Uses)))
			for _, u := range p.Uses {
				w.uvarint(uint64(u.Type))
				w.uvarint(uint64(u.Lines))
			}
		}
	}
	w.uvarint(uint64(len(st.Seqs)))
	for _, s := range st.Seqs {
		w.uvarint(uint64(s.Pattern))
		w.uvarint(uint64(s.Idx))
		w.uvarint(uint64(s.Display))
		w.uvarint(uint64(s.ConfigsWith2))
		w.uvarint(uint64(s.ConfigsSeq))
	}
	w.uvarint(uint64(len(st.Uniqs)))
	for _, u := range st.Uniqs {
		w.uvarint(uint64(u.Pattern))
		w.uvarint(uint64(u.Idx))
		w.uvarint(uint64(u.Display))
		w.uvarint(uint64(u.TotalValues))
		w.uvarint(uint64(len(u.Values)))
		for _, v := range u.Values {
			w.uvarint(uint64(v.Key))
			w.uvarint(uint64(v.Count))
		}
	}
	w.uvarint(uint64(len(st.Constants)))
	for _, c := range st.Constants {
		w.uvarint(uint64(c.Text))
		w.uvarint(uint64(c.ConfigCount))
	}
	w.uvarint(uint64(len(st.Cands)))
	for _, c := range st.Cands {
		w.uvarint(uint64(c.P1))
		w.uvarint(uint64(c.I1))
		w.uvarint(uint64(c.T1))
		w.uvarint(uint64(c.Rel))
		w.uvarint(uint64(c.P2))
		w.uvarint(uint64(c.I2))
		w.uvarint(uint64(c.T2))
		w.uvarint(uint64(c.Display1))
		w.uvarint(uint64(c.Display2))
		w.uvarint(uint64(c.HoldConfigs))
		w.uvarint(uint64(len(c.Scores)))
		for _, s := range c.Scores {
			w.uvarint(uint64(s.Key))
			w.f64(s.Score)
		}
	}
}

func decodeAccState(r *reader) *mining.AccumulatorState {
	st := &mining.AccumulatorState{}
	st.NConfigs = int(r.uvarint())
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.Strings = append(st.Strings, r.str())
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.Patterns = append(st.Patterns, mining.AccPattern{
			Pattern: mining.StrID(r.uvarint()), Display: mining.StrID(r.uvarint()),
			ConfigCount: int(r.uvarint()), LineCount: int(r.uvarint()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.Pairs = append(st.Pairs, mining.AccPair{
			First: mining.StrID(r.uvarint()), Second: mining.StrID(r.uvarint()),
			DisplayFirst: mining.StrID(r.uvarint()), DisplaySecond: mining.StrID(r.uvarint()),
			HoldConfigs: int(r.uvarint()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.FirstOccs = append(st.FirstOccs, mining.AccFirstOcc{
			Pattern: mining.StrID(r.uvarint()), Configs: int(r.uvarint()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		t := mining.AccType{Agnostic: mining.StrID(r.uvarint()), Total: int(r.uvarint())}
		for j, np := 0, r.count(); j < np && r.err == nil; j++ {
			p := mining.AccTypeParam{}
			for k, nu := 0, r.count(); k < nu && r.err == nil; k++ {
				p.Uses = append(p.Uses, mining.AccTypeUse{
					Type: mining.StrID(r.uvarint()), Lines: int(r.uvarint()),
				})
			}
			t.Params = append(t.Params, p)
		}
		st.Types = append(st.Types, t)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.Seqs = append(st.Seqs, mining.AccSeq{
			Pattern: mining.StrID(r.uvarint()), Idx: int(r.uvarint()),
			Display:      mining.StrID(r.uvarint()),
			ConfigsWith2: int(r.uvarint()), ConfigsSeq: int(r.uvarint()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		u := mining.AccUniq{
			Pattern: mining.StrID(r.uvarint()), Idx: int(r.uvarint()),
			Display: mining.StrID(r.uvarint()), TotalValues: int(r.uvarint()),
		}
		for j, nv := 0, r.count(); j < nv && r.err == nil; j++ {
			u.Values = append(u.Values, mining.AccValueCount{
				Key: mining.StrID(r.uvarint()), Count: int(r.uvarint()),
			})
		}
		st.Uniqs = append(st.Uniqs, u)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.Constants = append(st.Constants, mining.AccConstant{
			Text: mining.StrID(r.uvarint()), ConfigCount: int(r.uvarint()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		c := mining.AccCand{
			P1: mining.StrID(r.uvarint()), I1: int(r.uvarint()),
			T1:  mining.StrID(r.uvarint()),
			Rel: mining.StrID(r.uvarint()),
			P2:  mining.StrID(r.uvarint()), I2: int(r.uvarint()),
			T2:       mining.StrID(r.uvarint()),
			Display1: mining.StrID(r.uvarint()), Display2: mining.StrID(r.uvarint()),
			HoldConfigs: int(r.uvarint()),
		}
		for j, ns := 0, r.count(); j < ns && r.err == nil; j++ {
			c.Scores = append(c.Scores, mining.AccScore{
				Key: mining.StrID(r.uvarint()), Score: r.f64(),
			})
		}
		st.Cands = append(st.Cands, c)
	}
	return st
}
