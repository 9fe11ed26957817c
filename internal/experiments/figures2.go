package experiments

import (
	"fmt"
	"io"
	"strings"

	"graphpi/internal/cluster"
	"graphpi/internal/core"
	"graphpi/internal/costmodel"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// ---------------------------------------------------------------------------
// Figure 9 — the schedule space of P3 on WikiVote-S.

// Fig9Point is one measured schedule.
type Fig9Point struct {
	Schedule   string
	Eliminated bool // removed by the 2-phase generator
	Cell       Cell
	// Picked marks the schedules selected by GraphPi's model and by the
	// reproduced GraphZero's model.
	PickedByGraphPi, PickedByGraphZero bool
}

// Fig9Result reproduces Figure 9.
type Fig9Result struct {
	Points []Fig9Point
	// Oracle/GraphPiPick/GraphZeroPick are the runtimes of the best
	// measured generated schedule and of the two systems' selections.
	Oracle, GraphPiPick, GraphZeroPick Cell
	Generated, EliminatedCount         int
}

// Fig9 measures every schedule (both the 2-phase survivors and the
// eliminated ones) of P3 on WikiVote-S under the GraphZero restriction set
// — the paper's protocol isolates schedule effects by fixing restrictions.
// GraphPi's and GraphZero's schedule picks are marked.
func Fig9(opt Options) (*Fig9Result, error) {
	opt = opt.normalized()
	g, err := loadGraph("WikiVote-S", opt)
	if err != nil {
		return nil, err
	}
	p := evalPatterns()[2] // P3
	gzSet := restrict.GraphZeroSet(p)
	sres := schedule.Generate(p, schedule.Options{KeepEliminated: true})
	params := costmodel.FromStats(g.Stats())

	pickFrom := func(scheds []schedule.Schedule, model costmodel.Model) int {
		best, bestCost := -1, 0.0
		for i, s := range scheds {
			plan := schedule.BuildPlan(schedule.RelabeledPattern(p, s), p.N())
			c := costmodel.Estimate(plan, p.N(), mapSet(s, gzSet), params, model).Cost
			if best < 0 || c < bestCost {
				best, bestCost = i, c
			}
		}
		return best
	}
	gpPick := sres.Efficient[pickFrom(sres.Efficient, costmodel.GraphPi)]
	// GraphZero selects over Phase-1 schedules with the blind model.
	p1res := schedule.Generate(p, schedule.Options{Phase1Only: true})
	gzPick := p1res.Efficient[pickFrom(p1res.Efficient, costmodel.GraphZeroApprox)]

	limit := func(s []schedule.Schedule) []schedule.Schedule {
		if opt.MaxSchedules > 0 && len(s) > opt.MaxSchedules {
			return s[:opt.MaxSchedules]
		}
		return s
	}
	res := &Fig9Result{}
	runOne := func(s schedule.Schedule, eliminated bool) error {
		cfg, err := core.NewConfig(p, s, gzSet)
		if err != nil {
			return err
		}
		cell := measureConfig(cfg, g, opt, false)
		pt := Fig9Point{
			Schedule:          s.String(),
			Eliminated:        eliminated,
			Cell:              cell,
			PickedByGraphPi:   s.String() == gpPick.String(),
			PickedByGraphZero: s.String() == gzPick.String(),
		}
		res.Points = append(res.Points, pt)
		if !eliminated && !cell.TimedOut {
			if res.Oracle.Seconds == 0 || cell.Seconds < res.Oracle.Seconds {
				res.Oracle = cell
			}
		}
		if pt.PickedByGraphPi {
			res.GraphPiPick = cell
		}
		if pt.PickedByGraphZero {
			res.GraphZeroPick = cell
		}
		return nil
	}
	for _, s := range limit(sres.Efficient) {
		if err := runOne(s, false); err != nil {
			return nil, err
		}
	}
	for _, s := range limit(sres.Eliminated) {
		if err := runOne(s, true); err != nil {
			return nil, err
		}
	}
	// Ensure the picks are measured even if the limit cut them off.
	if res.GraphPiPick.Seconds == 0 {
		if err := runOne(gpPick, false); err != nil {
			return nil, err
		}
	}
	if res.GraphZeroPick.Seconds == 0 {
		elim := true
		for _, s := range sres.Efficient {
			if s.String() == gzPick.String() {
				elim = false
			}
		}
		if err := runOne(gzPick, elim); err != nil {
			return nil, err
		}
	}
	res.Generated = len(sres.Efficient)
	res.EliminatedCount = len(sres.Eliminated)
	return res, nil
}

func (r *Fig9Result) Report(w io.Writer) {
	writeHeader(w, "Figure 9: schedule space of P3 on WikiVote-S")
	fmt.Fprintf(w, "schedules: %d generated, %d eliminated by the 2-phase generator\n",
		r.Generated, r.EliminatedCount)
	for _, pt := range r.Points {
		mark := " "
		if pt.Eliminated {
			mark = "x"
		}
		tag := ""
		if pt.PickedByGraphPi {
			tag += " <== GraphPi pick"
		}
		if pt.PickedByGraphZero {
			tag += " <== GraphZero pick"
		}
		fmt.Fprintf(w, "  [%s] %-14s %s%s\n", mark, pt.Schedule, pt.Cell, tag)
	}
	if r.Oracle.Seconds > 0 {
		fmt.Fprintf(w, "oracle %.3fs | GraphPi pick %.3fs (%.2fx of oracle) | GraphZero pick %s\n",
			r.Oracle.Seconds, r.GraphPiPick.Seconds,
			r.GraphPiPick.Seconds/r.Oracle.Seconds, r.GraphZeroPick)
	}
}

// ---------------------------------------------------------------------------
// Figure 11 — accuracy of the performance prediction model.

// Fig11Row compares GraphPi's selected schedule with the measured oracle.
type Fig11Row struct {
	Graph, Pattern   string
	Selected, Oracle Cell
	SchedulesTried   int
}

// Fig11Result reproduces Figure 11.
type Fig11Result struct {
	Rows []Fig11Row
	// AvgSlowdown is the geometric mean of selected/oracle (paper: 1.32).
	AvgSlowdown float64
}

// Fig11 measures, for every pattern on WikiVote-S and Patents-S, each
// efficient schedule (with its model-chosen restriction set) and compares
// the model's selection with the measured oracle.
func Fig11(opt Options) (*Fig11Result, error) {
	opt = opt.normalized()
	res := &Fig11Result{}
	var ratios []float64
	for _, gname := range []string{"WikiVote-S", "Patents-S"} {
		g, err := loadGraph(gname, opt)
		if err != nil {
			return nil, err
		}
		params := costmodel.FromStats(g.Stats())
		for _, p := range evalPatterns() {
			sets, err := restrict.Generate(p, restrict.Options{})
			if err != nil {
				return nil, err
			}
			sres := schedule.Generate(p, schedule.Options{})
			scheds := sres.Efficient
			if opt.MaxSchedules > 0 && len(scheds) > opt.MaxSchedules {
				scheds = scheds[:opt.MaxSchedules]
			}
			row := Fig11Row{Graph: gname, Pattern: p.Name(), SchedulesTried: len(scheds)}
			bestPredicted, bestPredCost := -1, 0.0
			var cells []Cell
			for si, s := range scheds {
				plan := schedule.BuildPlan(schedule.RelabeledPattern(p, s), p.N())
				bestSet, bestSetCost := 0, 0.0
				for ri, rs := range sets {
					c := costmodel.Estimate(plan, p.N(), mapSet(s, rs), params, costmodel.GraphPi).Cost
					if ri == 0 || c < bestSetCost {
						bestSet, bestSetCost = ri, c
					}
				}
				cfg, err := core.NewConfig(p, s, sets[bestSet])
				if err != nil {
					return nil, err
				}
				cell := measureConfig(cfg, g, opt, false)
				cells = append(cells, cell)
				if bestPredicted < 0 || bestSetCost < bestPredCost {
					bestPredicted, bestPredCost = si, bestSetCost
				}
			}
			for i, cell := range cells {
				if cell.TimedOut {
					continue
				}
				if row.Oracle.Seconds == 0 || cell.Seconds < row.Oracle.Seconds {
					row.Oracle = cell
				}
				if i == bestPredicted {
					row.Selected = cell
				}
			}
			if row.Selected.Seconds > 0 && row.Oracle.Seconds > 0 {
				ratios = append(ratios, row.Selected.Seconds/row.Oracle.Seconds)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.AvgSlowdown = geoMean(ratios)
	return res, nil
}

func (r *Fig11Result) Report(w io.Writer) {
	writeHeader(w, "Figure 11: performance model accuracy (selected vs oracle)")
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %10s %8s\n",
		"Graph", "Pattern", "Selected", "Oracle", "Sel/Orc", "#Scheds")
	for _, row := range r.Rows {
		ratio := "-"
		if row.Selected.Seconds > 0 && row.Oracle.Seconds > 0 {
			ratio = fmt.Sprintf("%.2fx", row.Selected.Seconds/row.Oracle.Seconds)
		}
		fmt.Fprintf(w, "%-14s %-12s %12s %12s %10s %8d\n",
			row.Graph, row.Pattern, row.Selected, row.Oracle, ratio, row.SchedulesTried)
	}
	fmt.Fprintf(w, "geomean selected/oracle: %.2fx (paper: 1.32x)\n", r.AvgSlowdown)
}

// ---------------------------------------------------------------------------
// Figure 12 — scalability of the distributed runtime, nodes in-process.

// Fig12Point is one (pattern, nodes) measurement.
type Fig12Point struct {
	Graph, Pattern string
	Nodes          int
	Seconds        float64
	Speedup        float64 // vs the 1-node run of the same pattern
	Count          int64
	// Tasks is the number of tasks the master created; TasksPerNode is how
	// many each node ran.
	Tasks        int
	TasksPerNode []int64
	// EdgeParallel reports whether the master packed edge-slot tasks; the
	// planner's auto mode enables them for every eligible schedule.
	EdgeParallel bool
	// MaxBusyShare is the largest per-node fraction of total busy time
	// (ideal is 1/Nodes) — the load-balance evidence behind the curve.
	MaxBusyShare float64
}

// Fig12Result reproduces Figure 12.
type Fig12Result struct {
	Points []Fig12Point
}

// Fig12 runs the evaluation patterns on Orkut-S (all six) and Twitter-S
// (P2, P3 only, as in the paper) over a doubling range of in-process node
// counts, one worker per node, and reports the speedup curves. The nodes
// share the machine, so curves are meaningful up to the physical core count;
// short jobs flatten early exactly as in the paper.
func Fig12(opt Options, nodeCounts []int) (*Fig12Result, error) {
	opt = opt.normalized()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 2, 4, 8}
	}
	res := &Fig12Result{}
	run := func(gname string, patIdx []int) error {
		g, err := loadGraph(gname, opt)
		if err != nil {
			return err
		}
		stats := g.Stats()
		pats := evalPatterns()
		for _, pi := range patIdx {
			p := pats[pi]
			pr, err := core.Plan(p, stats, core.PlanOptions{})
			if err != nil {
				return err
			}
			var base float64
			for _, nodes := range nodeCounts {
				cres, err := cluster.Run(pr.Best, g, cluster.Options{
					Nodes:          nodes,
					WorkersPerNode: 1,
					UseIEP:         true,
				})
				if err != nil {
					return err
				}
				secs := cres.Elapsed.Seconds()
				if nodes == nodeCounts[0] {
					base = secs
				}
				perNode := make([]int64, len(cres.Nodes))
				for i, ns := range cres.Nodes {
					perNode[i] = ns.TasksRun
				}
				sp := 0.0
				if secs > 0 {
					sp = base / secs
				}
				res.Points = append(res.Points, Fig12Point{
					Graph: gname, Pattern: p.Name(), Nodes: nodes,
					Seconds: secs, Speedup: sp, Count: cres.Count,
					Tasks: cres.Tasks, TasksPerNode: perNode, EdgeParallel: cres.EdgeParallel,
					MaxBusyShare: cres.MaxBusyShare(),
				})
			}
		}
		return nil
	}
	if err := run("Orkut-S", []int{0, 1, 2, 3, 4, 5}); err != nil {
		return nil, err
	}
	if err := run("Twitter-S", []int{1, 2}); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *Fig12Result) Report(w io.Writer) {
	writeHeader(w, "Figure 12: scalability of the distributed runtime (nodes in-process)")
	fmt.Fprintf(w, "%-12s %-12s %7s %12s %9s %7s %6s %9s  %s\n",
		"Graph", "Pattern", "Nodes", "Time", "Speedup", "Tasks", "Shape", "MaxBusy", "TasksPerNode")
	for _, pt := range r.Points {
		shape := "vert"
		if pt.EdgeParallel {
			shape = "edge"
		}
		perNode := make([]string, len(pt.TasksPerNode))
		for i, n := range pt.TasksPerNode {
			perNode[i] = fmt.Sprint(n)
		}
		fmt.Fprintf(w, "%-12s %-12s %7d %11.3fs %8.2fx %7d %6s %8.2f%%  %s\n",
			pt.Graph, pt.Pattern, pt.Nodes, pt.Seconds, pt.Speedup,
			pt.Tasks, shape, 100*pt.MaxBusyShare, strings.Join(perNode, "/"))
	}
}
