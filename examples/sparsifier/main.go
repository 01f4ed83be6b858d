// Spectral sparsification (Theorem 3.3): build the deterministic sparsifier
// of a dense graph, measure its approximation factor against the exact
// dense oracle, and compare with the randomized effective-resistance
// sampler of the paper's closing remark.
//
//	go run ./examples/sparsifier
package main

import (
	"fmt"
	"os"

	"lapcc/internal/graph"
	"lapcc/internal/linalg"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
	"lapcc/internal/sparsify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sparsifier:", err)
		os.Exit(1)
	}
}

func run() error {
	g := graph.Complete(96)
	fmt.Printf("input: K%d with %d edges\n\n", g.N(), g.M())

	detLed := rounds.New()
	det, err := sparsify.Sparsify(g, sparsify.Options{Ledger: detLed})
	if err != nil {
		return err
	}
	detAlpha, err := sparsify.MeasureAlpha(g, det.H, 200)
	if err != nil {
		return err
	}
	fmt.Printf("deterministic (Thm 3.3):  %5d edges, alpha = %.2f, %d rounds (%d levels, %d parts)\n",
		det.H.M(), detAlpha, detLed.Total(), det.Levels, det.Parts)

	rndLed := rounds.New()
	rnd, err := sparsify.RandomizedSparsify(g, sparsify.RandomOptions{Seed: 1, Env: runenv.Env{Ledger: rndLed}})
	if err != nil {
		return err
	}
	rndAlpha, err := sparsify.MeasureAlpha(g, rnd.H, 200)
	if err != nil {
		return err
	}
	fmt.Printf("randomized ([FV22] remark):%4d edges, alpha = %.2f, %d rounds\n",
		rnd.H.M(), rndAlpha, rndLed.Total())

	// Ground-truth the deterministic alpha with the dense pencil oracle.
	exact, err := linalg.PencilEigenDense(
		linalg.NewLaplacian(g).Dense(), linalg.NewLaplacian(det.H).Dense(), 1e-10)
	if err != nil {
		return err
	}
	fmt.Printf("\nexact pencil spectrum of the deterministic sparsifier: [%.4f, %.4f]\n",
		exact[0], exact[len(exact)-1])
	fmt.Printf("=> solving with it costs sqrt(kappa)=%.1fx more Chebyshev iterations than exact preconditioning\n",
		detAlpha)
	fmt.Println("\nthe sparsifier is what every clique node holds; its size is what makes the")
	fmt.Println("Theorem 1.1 preconditioner solves free (internal) in the congested clique.")
	return nil
}
