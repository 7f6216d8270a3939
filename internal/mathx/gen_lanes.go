//go:build ignore

// gen_lanes writes lanes10_amd64.s or lanes20_amd64.s: laneMul10 or laneMul20,
// eight almost-Montgomery multiplies at once, one per 64-bit lane of a ZMM
// register, for AVX512F with IFMA. Run it with `go generate` in internal/mathx
// (it writes the file given by -out) or `go run gen_lanes.go -limbs 10|20` (it
// writes to stdout); TestLaneKernelGenerated fails when a committed file
// differs from this program's output.
//
// The eight lanes share one odd modulus m held in radix 2^52 as L limbs (L =
// 10 or 20), m < 2^512 or m < 2^1024; R = 2^(52·L), 2^520 or 2^1040. An
// operand is a laneNum, limb-major: ZMM register j of x holds limb j of all
// eight lanes. Each round i adds x·y[i] and then q·m, with q = t[0]·k0 mod 2^52
// per lane and k0 = −m⁻¹ mod 2^52, so that t[0]'s low 52 bits cancel; t[0]'s
// carry moves into t[1] and the registers rename down a limb (Drucker and
// Gueron, "Fast modular squaring with AVX512IFMA", 2019). VPMADD52LUQ and
// VPMADD52HUQ add the low and high 52 bits of a 52×52-bit product into a 64-bit
// limb, and m's limbs are broadcast from memory, so a round is 4·L such
// instructions on x, y[i], q and m. At ten limbs x stays in ten registers for
// the whole multiply; at twenty the accumulator alone takes 21, so x streams
// from memory as the instructions' third operand.
//
// The limbs of x and y must be below 2^52, which the multipliers read; the
// accumulator's limbs may grow past it (a limb takes at most 4·L products of
// < 2^52 and one carry before it leaves, below 2^59 at L = 20), and after the
// last round one carry pass brings each back below 2^52, so the result is a
// valid operand. With x, y < 2m and 4m < R the result (x·y + Q·m)/R is below
// 2m: almost-Montgomery, reduced into [0, m) only by the caller, once, at the
// end of an exponentiation or when a fold's bucket is read out.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
)

type gen struct {
	bytes.Buffer
	limbs int
}

func (g *gen) op(format string, args ...any) {
	fmt.Fprintf(&g.Buffer, "\t"+format+"\n", args...)
}

func (g *gen) line(format string, args ...any) {
	fmt.Fprintf(&g.Buffer, format+"\n", args...)
}

// Register roles: x and t share the 21 registers of regs (Z15 is left alone,
// the Go ABI's zero register). Where both fit, x's limbs take the first ones
// and t rotates through the next limbs+1; otherwise t takes them all and x is
// read from memory. y holds the round's limb of y, q the round's quotient
// digits, and k0 and mask are broadcast once.
var regs = []string{
	"Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10",
	"Z11", "Z12", "Z13", "Z14", "Z16", "Z17", "Z18", "Z19", "Z20", "Z21",
}

const (
	y, q, k0, mask, tmp = "Z22", "Z23", "Z24", "Z25", "Z26"
	xp, yp, mp, zp      = "SI", "DI", "R8", "DX"
)

func (g *gen) kernel() {
	limbs := g.limbs
	var xregs []string // nil: x streams from memory
	tregs := regs[:limbs+1]
	if 2*limbs+1 <= len(regs) {
		xregs, tregs = regs[:limbs], regs[limbs:2*limbs+1]
	}
	// x names limb j of x: its register, or its place in memory.
	x := func(j int) string {
		if xregs != nil {
			return xregs[j]
		}
		return fmt.Sprintf("%d(%s)", 64*j, xp)
	}

	g.line("// func laneMul%d(z, x, y *laneNum, m *[laneMaxLimbs]uint64, k0 uint64)", limbs)
	g.line("TEXT ·laneMul%d(SB), NOSPLIT, $0-40", limbs)
	g.op("MOVQ x+8(FP), %s", xp)
	g.op("MOVQ y+16(FP), %s", yp)
	g.op("MOVQ m+24(FP), %s", mp)
	g.op("VPBROADCASTQ k0+32(FP), %s", k0)
	g.op("MOVQ $0xfffffffffffff, AX")
	g.op("VPBROADCASTQ AX, %s", mask)
	for j, r := range xregs {
		g.op("VMOVDQU64 %d(%s), %s", 64*j, xp, r)
	}
	t := append([]string(nil), tregs...)
	for _, r := range t {
		g.op("VPXORQ %s, %s, %s", r, r, r)
	}
	for i := 0; i < limbs; i++ {
		g.line("")
		g.op("// round %d: t += x·y[%d]; q = t[0]·k0 mod 2^52, issued as soon as t[0] is", i, i)
		g.op("VMOVDQU64 %d(%s), %s", 64*i, yp, y)
		g.op("VPMADD52LUQ %s, %s, %s", x(0), y, t[0])
		g.op("VPXORQ %s, %s, %s", q, q, q)
		g.op("VPMADD52LUQ %s, %s, %s", k0, t[0], q)
		for j := 1; j < limbs; j++ {
			g.op("VPMADD52LUQ %s, %s, %s", x(j), y, t[j])
		}
		for j := 0; j < limbs; j++ {
			g.op("VPMADD52HUQ %s, %s, %s", x(j), y, t[j+1])
		}
		g.op("// t += q·m: t[0]'s low 52 bits cancel, its carry moves to t[1]")
		for j := 0; j < limbs; j++ {
			g.op("VPMADD52LUQ.BCST %d(%s), %s, %s", 8*j, mp, q, t[j])
		}
		for j := 0; j < limbs; j++ {
			g.op("VPMADD52HUQ.BCST %d(%s), %s, %s", 8*j, mp, q, t[j+1])
		}
		g.op("VPSRLQ $52, %s, %s", t[0], t[0])
		g.op("VPADDQ %s, %s, %s", t[0], t[1], t[1])
		if i < limbs-1 {
			g.op("VPXORQ %s, %s, %s", t[0], t[0], t[0])
		}
		t = append(t[1:], t[0])
	}
	g.line("")
	g.op("// every limb below 2^52; t < 2m < R/2, so nothing carries out of t[%d]", limbs-1)
	for j := 0; j < limbs-1; j++ {
		g.op("VPSRLQ $52, %s, %s", t[j], tmp)
		g.op("VPANDQ %s, %s, %s", mask, t[j], t[j])
		g.op("VPADDQ %s, %s, %s", tmp, t[j+1], t[j+1])
	}
	g.op("MOVQ z+0(FP), %s", zp)
	for j := 0; j < limbs; j++ {
		g.op("VMOVDQU64 %s, %d(%s)", t[j], 64*j, zp)
	}
	g.op("VZEROUPPER")
	g.op("RET")
}

func main() {
	limbs := flag.Int("limbs", 10, "radix-2^52 limbs per lane: 10 or 20")
	out := flag.String("out", "", "write the assembly to this file instead of stdout")
	flag.Parse()
	if *limbs != 10 && *limbs != 20 {
		log.Fatalf("-limbs %d: want 10 or 20", *limbs)
	}

	g := gen{limbs: *limbs}
	g.line("// Code generated by gen_lanes.go; DO NOT EDIT.")
	g.line("")
	g.line("#include \"textflag.h\"")
	g.line("")
	g.kernel()

	if *out == "" {
		os.Stdout.Write(g.Bytes())
		return
	}
	if err := os.WriteFile(*out, g.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
