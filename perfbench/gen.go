package main

import (
	"fmt"
	"math/rand"

	"pdps/internal/engine"
	"pdps/internal/match"
	"pdps/internal/wm"
)

// The batch-durable program is the layered consumption of
// workload.RandomContended with its shape fixed instead of drawn from
// the seed: each rule r<l> removes a c<l> tuple and makes its layer-l+1
// successors; hub-coupled layers also read and modify the single
// (hub ^n ...) tuple, serialising those firings through one write lock;
// the negated layer tests that no hub tuple has ^n < 0, which never
// matches but takes a relation-level read lock that collides with the
// hub writers. The seed only scatters the initial tuples: their values
// (a tiny domain, so duplicate-content tuples are common) and their
// insertion order, which sets the time tags conflict resolution orders
// by. The per-layer tuple counts are fixed, so every seed has the same
// exact commit and hub counts.
var (
	batchFanout = []int{1, 1, 1, 1} // successors made per firing; the last layer makes none
	batchHub    = []bool{false, false, true, true}
	batchNeg    = []bool{false, true, false, false}
)

// batchTuplesPerLayer is the number of initial tuples in each layer:
// about 1000 in all.
const batchTuplesPerLayer = 125

// batchProgram is a generated program with the exact outcome every
// consistent execution of it reaches.
type batchProgram struct {
	prog    engine.Program
	commits int   // committed firings
	hub     int64 // final ^n of the hub tuple, the store's only WME
}

func genBatch(seed int64) batchProgram {
	layers := len(batchFanout)
	rules := make([]*match.Rule, layers)
	for l := 0; l < layers; l++ {
		r := &match.Rule{
			Name: fmt.Sprintf("r%d", l),
			Conditions: []match.Condition{
				{Class: fmt.Sprintf("c%d", l), Tests: []match.AttrTest{{Attr: "v", Op: match.OpEq, Var: "x"}}},
			},
			Actions: []match.Action{{Kind: match.ActRemove, CE: 0}},
		}
		if batchHub[l] {
			r.Conditions = append(r.Conditions, match.Condition{
				Class: "hub", Tests: []match.AttrTest{{Attr: "n", Op: match.OpEq, Var: "t"}}})
			r.Actions = append(r.Actions, match.Action{
				Kind: match.ActModify, CE: 1,
				Assigns: []match.AttrAssign{{Attr: "n", Expr: match.BinExpr{
					Op: match.ArithAdd, L: match.VarExpr{Name: "t"}, R: match.ConstExpr{Val: wm.Int(1)}}}},
			})
		}
		if batchNeg[l] {
			r.Conditions = append(r.Conditions, match.Condition{
				Class: "hub", Negated: true,
				Tests: []match.AttrTest{{Attr: "n", Op: match.OpLt, Const: wm.Int(0)}}})
		}
		if l < layers-1 {
			for k := 0; k < batchFanout[l]; k++ {
				r.Actions = append(r.Actions, match.Action{
					Kind: match.ActMake, Class: fmt.Sprintf("c%d", l+1),
					Assigns: []match.AttrAssign{{Attr: "v", Expr: match.VarExpr{Name: "x"}}}})
			}
		}
		rules[l] = r
	}

	// commitsFrom[l] and hubFrom[l] are the firings, and the hub-coupled
	// firings, that one layer-l tuple causes down the layers.
	commitsFrom := make([]int, layers)
	hubFrom := make([]int, layers)
	for l := layers - 1; l >= 0; l-- {
		commitsFrom[l] = 1
		if batchHub[l] {
			hubFrom[l] = 1
		}
		if l < layers-1 {
			commitsFrom[l] += batchFanout[l] * commitsFrom[l+1]
			hubFrom[l] += batchFanout[l] * hubFrom[l+1]
		}
	}

	rng := rand.New(rand.NewSource(seed))
	out := batchProgram{prog: engine.Program{Rules: rules}}
	wmes := make([]engine.InitialWME, 0, layers*batchTuplesPerLayer)
	for l := 0; l < layers; l++ {
		for i := 0; i < batchTuplesPerLayer; i++ {
			wmes = append(wmes, engine.InitialWME{
				Class: fmt.Sprintf("c%d", l),
				Attrs: map[string]wm.Value{"v": wm.Int(int64(rng.Intn(3)))},
			})
			out.commits += commitsFrom[l]
			out.hub += int64(hubFrom[l])
		}
	}
	rng.Shuffle(len(wmes), func(i, j int) { wmes[i], wmes[j] = wmes[j], wmes[i] })
	out.prog.WMEs = append(wmes, engine.InitialWME{Class: "hub", Attrs: map[string]wm.Value{"n": wm.Int(0)}})
	return out
}
