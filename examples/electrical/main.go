// Electrical networks: compute node potentials, effective resistance, and
// edge currents on a 2D grid with the internal/electrical package — the
// workhorse primitive inside both flow IPMs (each interior-point iteration
// is exactly one such electrical solve).
//
//	go run ./examples/electrical
package main

import (
	"fmt"
	"os"

	"lapcc/internal/electrical"
	"lapcc/internal/graph"
	"lapcc/internal/rounds"
	"lapcc/internal/runenv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "electrical:", err)
		os.Exit(1)
	}
}

func run() error {
	const rows, cols = 12, 12
	g := graph.Grid(rows, cols)
	corner := 0
	center := (rows/2)*cols + cols/2

	led := rounds.New()
	nw, err := electrical.NewNetwork(g, runenv.Env{Ledger: led})
	if err != nil {
		return err
	}

	phi, err := nw.PolePotentials(corner, center, 1e-10)
	if err != nil {
		return err
	}
	fmt.Printf("%dx%d grid: R_eff(corner, center) = %.6f ohms\n", rows, cols, phi[corner]-phi[center])
	fmt.Printf("dissipated energy at unit current: %.6f W (Thomson: equals R_eff)\n", nw.Energy(phi))

	idx, mag := nw.MaxCurrentEdge(phi)
	e := g.Edge(idx)
	fmt.Printf("most loaded edge: {%d,%d} carrying %.4f A of the 1 A injected\n", e.U, e.V, mag)

	// Amortization: more queries on the same network reuse the sparsifier.
	r2, err := nw.EffectiveResistance(0, rows*cols-1, 1e-10)
	if err != nil {
		return err
	}
	fmt.Printf("R_eff(corner, opposite corner) = %.6f ohms\n", r2)
	fmt.Printf("rounds: %d total (%d measured + %d charged)\n",
		led.Total(), led.TotalOf(rounds.Measured), led.TotalOf(rounds.Charged))
	return nil
}
