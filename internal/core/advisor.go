package core

import (
	"fmt"

	"hido/internal/stats"
)

// Advice is the parameter recommendation of §2.4.
type Advice struct {
	Phi int
	K   int
	// EmptySparsity is the sparsity coefficient of an empty cube at the
	// advised (Phi, K) — the most negative value attainable. The
	// rounding in K's formula makes it at least as negative as the
	// requested target.
	EmptySparsity float64
	// SingletonSparsity is the coefficient of a cube holding exactly
	// one point; §2.4 requires it to remain "reasonably negative" for
	// outliers covering real records to be minable.
	SingletonSparsity float64
}

func (a Advice) String() string {
	return fmt.Sprintf("phi=%d k=%d (empty cube S=%.3f, singleton S=%.3f)",
		a.Phi, a.K, a.EmptySparsity, a.SingletonSparsity)
}

// Advise computes the projection parameters of §2.4 for a data set of
// N records: given a grid resolution phi and a target sparsity
// coefficient s (e.g. −3, the paper's 99.9%-significance reference
// point), it returns k* = floor(log_phi(N/s² + 1)) — the largest
// dimensionality at which abnormally sparse projections exist before
// high dimensionality makes every cube sparse by default.
func Advise(N, phi int, s float64) Advice {
	k := stats.KStar(N, phi, s)
	return Advice{
		Phi:               phi,
		K:                 k,
		EmptySparsity:     stats.EmptySparsity(N, k, phi),
		SingletonSparsity: stats.Sparsity(1, N, k, phi),
	}
}

// Advise applies §2.4 to the detector's own N and phi.
func (d *Detector) Advise(s float64) Advice {
	return Advise(d.N(), d.Phi(), s)
}
