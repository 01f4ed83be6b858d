package linalg_test

import (
	"fmt"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
)

// ExamplePreconCheby solves a Laplacian system with an exact preconditioner
// (kappa = 1), the factored pseudoinverse of the same Laplacian: the
// potential difference across a path of three unit resistors is 3 volts at
// 1 ampere.
func ExamplePreconCheby() {
	g := graph.Path(4)
	l := linalg.NewLaplacian(g)
	b := linalg.Vec{1, 0, 0, -1}
	f, _ := linalg.LaplacianCholesky(g)
	solve := func(dst, r linalg.Vec) error {
		f.PseudoSolveTo(dst, r)
		return nil
	}
	x, _, _ := linalg.PreconCheby(l, solve, b, linalg.ChebyOptions{Kappa: 1, Eps: 1e-10})
	fmt.Printf("%.3f\n", x[0]-x[3])
	// Output: 3.000
}

// ExampleLaplacian_Quad evaluates the Laplacian quadratic form, the energy
// of a vertex potential.
func ExampleLaplacian_Quad() {
	l := linalg.NewLaplacian(graph.Path(3))
	fmt.Println(l.Quad(linalg.Vec{0, 1, 2}))
	// Output: 2
}
