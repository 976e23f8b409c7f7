package experiments

import (
	"fmt"
	"strings"
	"time"

	"viralcast/internal/cascade"
	"viralcast/internal/core"
	"viralcast/internal/report"
	"viralcast/internal/workload"
)

// ScalingExperiment configures the parallel-performance studies of
// Figures 10, 11 and 13. The paper runs the hierarchical inference on
// SBM graphs with core counts 1, 2, 4, 8, 16, 32 and 64.
//
// Methodology note (documented in DESIGN.md and EXPERIMENTS.md): every
// community task of Algorithm 1 reports its work, the infections in its
// sub-cascades times the EM sweeps it ran (infer.LevelStats.TaskWork),
// and the runtime for w workers is the per-level LPT makespan of that
// work at one calibrated cost per infection sweep plus a per-level
// barrier cost that grows linearly with w (ScheduleCost). This is the
// schedule a w-core machine executes, whatever the cores of the host
// that runs the fit (goroutine wall-clock speedup is unobservable on a
// one- or two-core host), and it is a function of the seed: the figures
// print the same bytes on every run.
type ScalingExperiment struct {
	Cores []int
	// Q is Algorithm 2's community-count stopping threshold. The paper's
	// scalability runs stop the hierarchy while several communities
	// remain (the serial root polish would otherwise bound the speedup);
	// the accuracy experiments use Q=1 instead.
	Q int
	// BarrierCost is charged per worker per level — the communication /
	// synchronization overhead the paper identifies as the reason the
	// speedup flattens between 32 and 64 cores.
	BarrierCost time.Duration
	MaxIter     int
	InferK      int
	Seed        uint64
}

// DefaultScaling mirrors the paper's core grid.
func DefaultScaling() ScalingExperiment {
	return ScalingExperiment{
		Cores:       []int{1, 2, 4, 8, 16, 32, 64},
		Q:           10,
		BarrierCost: 50 * time.Microsecond,
		MaxIter:     20,
		InferK:      4,
		Seed:        1,
	}
}

// ScalingSeries is one curve of a scaling figure: runtime per core count
// for one workload.
type ScalingSeries struct {
	Label   string
	N       int // nodes in the SBM graph
	C       int // cascades processed
	Cores   []int
	Seconds []float64
}

// Speedup returns s_w = t_1/t_w for every core count (paper Eq. 20).
func (s *ScalingSeries) Speedup() []float64 {
	out := make([]float64, len(s.Seconds))
	if len(s.Seconds) == 0 || s.Seconds[0] <= 0 {
		return out
	}
	for i, sec := range s.Seconds {
		if sec > 0 {
			out[i] = s.Seconds[0] / sec
		}
	}
	return out
}

// Efficiency returns e_w = s_w / w (paper Eq. 21).
func (s *ScalingSeries) Efficiency() []float64 {
	sp := s.Speedup()
	out := make([]float64, len(sp))
	for i, v := range sp {
		out[i] = v / float64(s.Cores[i])
	}
	return out
}

// drawScaling draws the first `cascades` cascades of the scaling
// workload on n nodes. Every cascade is fitted: there is no train / test
// split.
func drawScaling(sc ScalingExperiment, n, cascades int) ([]*cascade.Cascade, error) {
	c := workload.Default()
	c.N, c.Cascades, c.Seed = n, cascades, sc.Seed
	w, err := workload.Build(c)
	if err != nil {
		return nil, err
	}
	return w.Cascades, nil
}

// runScalingWorkload fits one workload's cascades on n nodes as the
// product does, core.Train stopped at sc.Q communities, and models its
// runtime at every core count from the fit's work counts.
func runScalingWorkload(sc ScalingExperiment, n int, cs []*cascade.Cascade, label string) (*ScalingSeries, error) {
	sys, err := core.Train(cs, n, core.TrainConfig{
		Topics: sc.InferK, MaxIter: sc.MaxIter, Q: sc.Q, Seed: sc.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	series := &ScalingSeries{Label: label, N: n, C: len(cs), Cores: sc.Cores}
	for _, cores := range sc.Cores {
		series.Seconds = append(series.Seconds,
			ScheduleCost(sys.Trace.Levels, cores, sc.BarrierCost).Seconds())
	}
	return series, nil
}

// Figure10 measures runtime vs cores for C in {1000, 2000, 3000}
// cascades on an SBM graph with n nodes (paper: n=2000).
func Figure10(sc ScalingExperiment, n int, cascadeCounts []int) ([]*ScalingSeries, error) {
	if len(cascadeCounts) == 0 {
		cascadeCounts = []int{1000, 2000, 3000}
	}
	var out []*ScalingSeries
	for _, c := range cascadeCounts {
		cs, err := drawScaling(sc, n, c)
		if err != nil {
			return nil, err
		}
		s, err := runScalingWorkload(sc, n, cs, fmt.Sprintf("C=%d", c))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure11 measures runtime vs cores for N in {1000, 2000, 4000} nodes
// at a fixed amount of work (paper: C=2000). The paper's observation:
// runtime is nearly independent of N because the algorithm's work is
// linear in total infections, not in graph size. The first N fits
// `cascades` cascades; every other N fits the shortest prefix of its
// draw whose infections reach the first's, so the figure compares graph
// sizes at the same infection count — at a fixed cascade count a larger
// graph's cascades grow (at the default scale N=4000 held twice N=1000's
// infections). Its series' C is the prefix length.
func Figure11(sc ScalingExperiment, nodeCounts []int, cascades int) ([]*ScalingSeries, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1000, 2000, 4000}
	}
	var out []*ScalingSeries
	target := 0
	for i, n := range nodeCounts {
		cs, err := drawScaling(sc, n, cascades)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			target = cascade.TotalInfections(cs)
		} else if cs, err = infectionPrefix(sc, n, cs, target); err != nil {
			return nil, err
		}
		s, err := runScalingWorkload(sc, n, cs, fmt.Sprintf("N=%d", n))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// infectionPrefix returns the shortest prefix of n's draw whose
// infections reach target, drawing longer as needed starting from cs, a
// prefix of the draw itself. A draw is prefix-stable (workload.Build),
// so a longer draw begins with cs.
func infectionPrefix(sc ScalingExperiment, n int, cs []*cascade.Cascade, target int) ([]*cascade.Cascade, error) {
	for cascade.TotalInfections(cs) < target {
		var err error
		if cs, err = drawScaling(sc, n, 2*len(cs)); err != nil {
			return nil, err
		}
	}
	sum := 0
	for i, c := range cs {
		if sum += c.Size(); sum >= target {
			return cs[:i+1], nil
		}
	}
	return cs, nil
}

// Figure13 derives the speedup and efficiency curves from Figure 10's
// series (the paper derives them from the same runs).
type Figure13Result struct {
	Series []*ScalingSeries
}

// RenderScaling renders runtime-vs-cores series (Figures 10 and 11).
func RenderScaling(title string, series []*ScalingSeries) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	rows := make([][]string, 0)
	for _, s := range series {
		for i, cores := range s.Cores {
			rows = append(rows, []string{
				s.Label,
				fmt.Sprintf("%d", cores),
				report.FormatFloat(s.Seconds[i], 3),
			})
		}
	}
	b.WriteString(report.Table([]string{"workload", "cores", "seconds"}, rows))
	var lines []report.Series
	for _, s := range series {
		var pts []report.Point
		for i, cores := range s.Cores {
			pts = append(pts, report.Point{X: float64(cores), Y: s.Seconds[i]})
		}
		lines = append(lines, report.Series{Name: s.Label, Points: pts})
	}
	b.WriteString(report.ASCIILines(lines, 60, 12))
	return b.String()
}

// Render renders Figure 13 (speedup and efficiency).
func (r *Figure13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13 — speedup s_n = t_1/t_n and efficiency e_n = s_n/n\n")
	rows := make([][]string, 0)
	for _, s := range r.Series {
		sp, ef := s.Speedup(), s.Efficiency()
		for i, cores := range s.Cores {
			rows = append(rows, []string{
				s.Label,
				fmt.Sprintf("%d", cores),
				report.FormatFloat(sp[i], 2),
				report.FormatFloat(ef[i], 3),
			})
		}
	}
	b.WriteString(report.Table([]string{"workload", "cores", "speedup", "efficiency"}, rows))
	return b.String()
}

// CSVScaling emits the runtime series for a scaling figure.
func CSVScaling(series []*ScalingSeries) ([]string, [][]float64) {
	header := []string{"n", "cascades", "cores", "seconds", "speedup", "efficiency"}
	var rows [][]float64
	for _, s := range series {
		sp, ef := s.Speedup(), s.Efficiency()
		for i, cores := range s.Cores {
			rows = append(rows, []float64{
				float64(s.N), float64(s.C), float64(cores), s.Seconds[i], sp[i], ef[i],
			})
		}
	}
	return header, rows
}
