package tprofiler

import (
	"fmt"
	"sort"
	"strings"

	"vats/internal/stats"
)

// Node is one call-path node of the variance tree.
type Node struct {
	Path     string
	Name     string // last path segment
	Depth    int
	Height   int // max depth of subtree beneath (0 = leaf)
	Mean     float64
	Variance float64
	Children []*Node
}

// Tree builds the variance tree rooted at the transaction.
func (p *Profiler) Tree() *Node {
	if p == nil {
		return nil
	}
	d := p.analyzed()
	defer p.foldMu.Unlock()
	hs := heights(d)
	total := d.Total()
	root := &Node{Path: "txn", Name: "txn", Height: hs["txn"], Mean: total.Mean(), Variance: total.Variance()}
	byPath := make(map[string]*Node, len(d.paths))
	d.Paths(func(path string, w *stats.Welford) {
		byPath[path] = &Node{
			Path:     path,
			Name:     lastSegment(path),
			Depth:    depthOf(path),
			Height:   hs[path],
			Mean:     w.Mean(),
			Variance: w.Variance(),
		}
	})
	for path, n := range byPath {
		parent := byPath[parentOf(path)]
		if parent == nil {
			parent = root
		}
		parent.Children = append(parent.Children, n)
	}
	var sortChildren func(n *Node)
	sortChildren = func(n *Node) {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Variance > n.Children[j].Variance
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sortChildren(root)
	return root
}

// heights maps every path (and every ancestor of one) to its subtree
// height, the depth of its deepest descendant below it: a walk up each
// path's ancestors.
func heights(d *Decomp) map[string]int {
	hs := make(map[string]int, len(d.paths))
	for _, path := range d.paths {
		depth := depthOf(path)
		for anc := parentOf(path); anc != ""; anc = parentOf(anc) {
			hs[anc] = max(hs[anc], depth-depthOf(anc))
		}
	}
	return hs
}

// RootVariance is the variance of end-to-end transaction latency (ms²).
func (p *Profiler) RootVariance() float64 {
	if p == nil {
		return 0
	}
	total := p.analyzed().Total()
	p.foldMu.Unlock()
	return total.Variance()
}

// RootMean is the mean end-to-end transaction latency (ms).
func (p *Profiler) RootMean() float64 {
	if p == nil {
		return 0
	}
	total := p.analyzed().Total()
	p.foldMu.Unlock()
	return total.Mean()
}

// FactorKind distinguishes variance factors from covariance factors.
type FactorKind int

const (
	// VarianceFactor is the variance of a single function.
	VarianceFactor FactorKind = iota
	// CovarianceFactor is the covariance of a sibling function pair.
	CovarianceFactor
)

// Factor is a ranked source of variance: a function (variance summed
// across its call sites) or a co-varying function pair. This is what
// TProfiler reports to the developer (the paper's Tables 1 and 2).
type Factor struct {
	Kind FactorKind `json:"-"`
	// Functions holds one name (variance) or two (covariance).
	Functions []string `json:"functions"`
	// Value is Σ V(φi) across call sites: the variance, or 2·covariance
	// (the factor's contribution to the parent's variance per eq. 1).
	Value float64 `json:"value"`
	// Score = specificity · Value (eq. 3).
	Score float64 `json:"score"`
	// FracOfTotal is Value / Var(txn): the "Percentage of Overall
	// Variance" column of Tables 1 and 2.
	FracOfTotal float64 `json:"frac_of_total"`
}

// String renders the factor like the paper's tables.
func (f Factor) String() string {
	return fmt.Sprintf("%-40s %6.1f%%  (score %.3g)",
		strings.Join(f.Functions, " × "), 100*f.FracOfTotal, f.Score)
}

// TopFactors ranks factors by score and returns the best k, mirroring
// the paper's top-k selection. The root is excluded (its variance is the
// quantity being explained). The scoring itself lives in RankFactors so
// the live observability layer ranks its streaming state with the
// identical math.
func (p *Profiler) TopFactors(k int) []Factor {
	if p == nil {
		return nil
	}
	d := p.analyzed()
	defer p.foldMu.Unlock()
	return RankFactors(d, heights(d), k)
}

// Report renders the variance tree as indented text with per-node
// variance and the share of the root's variance.
func (p *Profiler) Report() string {
	root := p.Tree()
	if root == nil {
		return ""
	}
	var b strings.Builder
	rootVar := root.Variance
	var walk func(n *Node, indent int)
	walk = func(n *Node, indent int) {
		fmt.Fprintf(&b, "%s%-30s var=%10.4f  (%5.1f%% of txn)  mean=%8.4fms\n",
			strings.Repeat("  ", indent), n.Name, n.Variance, 100*frac(n.Variance, rootVar), n.Mean)
		for _, c := range n.Children {
			walk(c, indent+1)
		}
	}
	walk(root, 0)
	return b.String()
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
