//go:build ignore

// gen_lanes writes lanes10_amd64.s, lanes20_amd64.s or lanes40_amd64.s:
// laneMul10, laneMul20 or laneMul40, eight almost-Montgomery multiplies at
// once, one per 64-bit lane of a ZMM register, for AVX512F with IFMA. Run it
// with `go generate` in internal/mathx (it writes the file given by -out) or
// `go run gen_lanes.go -limbs 10|20|40` (it writes to stdout);
// TestLaneKernelGenerated fails when a committed file differs from this
// program's output.
//
// The eight lanes share one odd modulus m held in radix 2^52 as L limbs (L =
// 10, 20 or 40), m < 2^512, 2^1024 or 2^2048; R = 2^(52·L), 2^520, 2^1040 or
// 2^2080. An operand is L laneRows, limb-major: ZMM register j of x holds limb
// j of all eight lanes. Each round i adds x·y[i] and then q·m, with q =
// t[0]·k0 mod 2^52 per lane and k0 = −m⁻¹ mod 2^52, so that t[0]'s low 52
// bits cancel; t[0]'s carry moves into t[1] and t moves down a limb (Drucker
// and Gueron, "Fast modular squaring with AVX512IFMA", 2019). VPMADD52LUQ and
// VPMADD52HUQ add the low and high 52 bits of a 52×52-bit product into a
// 64-bit limb, and m's limbs are broadcast from memory, so a round is 4·L
// such instructions on x, y[i], q and m.
//
// At ten and twenty limbs every round is unrolled and t lives in registers,
// moving down a limb by renaming them. At ten limbs x stays in ten registers
// for the whole multiply; at twenty the accumulator alone takes 21, so x
// streams from memory as the instructions' third operand. At forty limbs t
// does not fit either and the rounds are a loop, which cannot rename:
// t[0..23] stay in registers, each moved a register down per round, and
// t[24..39] stream through a 16-row scratch on the stack, one load and one
// store per limb and round, each stored a row down; x and m are read from
// memory. Keeping t's low limbs in the free registers read ≈ 10 % faster
// than keeping x's there and ≈ 15 % faster than streaming all of t (≈ 1.8
// against 2.0 and 2.2 µs per call, the three variants run round-robin on a
// 2-vCPU Xeon with AVX512-IFMA).
//
// The limbs of x and y must be below 2^52, which the multipliers read; the
// accumulator's limbs may grow past it (a limb takes at most 4·L products of
// < 2^52 and one carry before it leaves, below 2^60 at L = 40), and after the
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

// header opens the TEXT block of laneMulL with a frame of the given size
// and loads the pointers, k0 and the limb mask. A frame too large for
// NOSPLIT gets the stack check instead.
func (g *gen) header(frame int) {
	g.line("// func laneMul%d(z, x, y *laneRow, m *[laneMaxLimbs]uint64, k0 uint64)", g.limbs)
	if frame == 0 {
		g.line("TEXT ·laneMul%d(SB), NOSPLIT, $0-40", g.limbs)
	} else {
		g.line("TEXT ·laneMul%d(SB), $%d-40", g.limbs, frame)
	}
	g.op("MOVQ x+8(FP), %s", xp)
	g.op("MOVQ y+16(FP), %s", yp)
	g.op("MOVQ m+24(FP), %s", mp)
	g.op("VPBROADCASTQ k0+32(FP), %s", k0)
	g.op("MOVQ $0xfffffffffffff, AX")
	g.op("VPBROADCASTQ AX, %s", mask)
}

// inRegisters is the ten- and twenty-limb kernel: t in registers, every
// round unrolled.
func (g *gen) inRegisters() {
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

	g.header(0)
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

// Register roles at forty limbs: t0 holds t[0], tn builds the next round's
// t[0], c is t[0]'s carry, w carries a streamed limb of t from one scratch
// row to the one below, and rounds counts the loop. t[1..len(tregs)] live
// in tregs: a round moves each a register down, which costs one move where
// the scratch costs a load and a store.
const (
	t0, tn, c, w = "Z0", "Z1", "Z2", "Z3"
	rounds       = "CX"
)

var tregs = []string{
	"Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12", "Z13", "Z14",
	"Z16", "Z17", "Z18", "Z19", "Z20", "Z21", "Z26", "Z27", "Z28", "Z29", "Z30", "Z31",
}

// streaming is the forty-limb kernel: the rounds a loop, x and m read from
// memory, t[0] and t[1..len(tregs)] in registers and the rest of t in a
// scratch on the stack.
func (g *gen) streaming() {
	limbs, k := g.limbs, len(tregs)
	// tk names t[j], 1 ≤ j < limbs, between rounds: its register or its
	// scratch row.
	tk := func(j int) string {
		if j <= k {
			return tregs[j-1]
		}
		return fmt.Sprintf("%d(SP)", 64*(j-k-1))
	}
	x := func(j int) string { return fmt.Sprintf("%d(%s)", 64*j, xp) }
	g.header(64 * (limbs - 1 - k))
	g.op("VPXORQ %s, %s, %s", t0, t0, t0)
	for j := 1; j < limbs; j++ {
		if j <= k {
			g.op("VPXORQ %s, %s, %s", tk(j), tk(j), tk(j))
		} else {
			g.op("VMOVDQU64 %s, %s", t0, tk(j))
		}
	}
	g.op("MOVQ $%d, %s", limbs, rounds)

	g.line("")
	g.line("round:")
	g.op("// t += x·y[i]; q = t[0]·k0 mod 2^52; t += q·m, so t[0]'s low 52 bits cancel")
	g.op("VMOVDQU64 (%s), %s", yp, y)
	g.op("VPMADD52LUQ %s, %s, %s", x(0), y, t0)
	g.op("VPXORQ %s, %s, %s", q, q, q)
	g.op("VPMADD52LUQ %s, %s, %s", k0, t0, q)
	g.op("VPMADD52LUQ.BCST 0(%s), %s, %s", mp, q, t0)
	g.op("VPSRLQ $52, %s, %s", t0, c)
	g.op("// t[1] plus t[0]'s carry is the next round's t[0]")
	g.op("VMOVDQU64 %s, %s", tk(1), tn)
	g.op("VPMADD52LUQ %s, %s, %s", x(1), y, tn)
	g.op("VPMADD52HUQ %s, %s, %s", x(0), y, tn)
	g.op("VPMADD52LUQ.BCST 8(%s), %s, %s", mp, q, tn)
	g.op("VPMADD52HUQ.BCST 0(%s), %s, %s", mp, q, tn)
	g.op("VPADDQ %s, %s, %s", c, tn, t0)
	g.op("// t[j] goes a limb down, j = 2..%d: a register down, or a row", limbs-1)
	for j := 2; j < limbs; j++ {
		d := w
		if j-1 <= k {
			d = tk(j - 1)
		}
		g.op("VMOVDQU64 %s, %s", tk(j), d)
		g.op("VPMADD52LUQ %s, %s, %s", x(j), y, d)
		g.op("VPMADD52HUQ %s, %s, %s", x(j-1), y, d)
		g.op("VPMADD52LUQ.BCST %d(%s), %s, %s", 8*j, mp, q, d)
		g.op("VPMADD52HUQ.BCST %d(%s), %s, %s", 8*(j-1), mp, q, d)
		if d == w {
			g.op("VMOVDQU64 %s, %s", w, tk(j-1))
		}
	}
	g.op("// t[%d], zero at the round's start", limbs)
	g.op("VPXORQ %s, %s, %s", w, w, w)
	g.op("VPMADD52HUQ %s, %s, %s", x(limbs-1), y, w)
	g.op("VPMADD52HUQ.BCST %d(%s), %s, %s", 8*(limbs-1), mp, q, w)
	g.op("VMOVDQU64 %s, %s", w, tk(limbs-1))
	g.op("ADDQ $64, %s", yp)
	g.op("DECQ %s", rounds)
	g.op("JNZ round")

	g.line("")
	g.op("// every limb below 2^52; t < 2m < R/2, so nothing carries out of t[%d]", limbs-1)
	g.op("MOVQ z+0(FP), %s", zp)
	g.op("VPSRLQ $52, %s, %s", t0, c)
	g.op("VPANDQ %s, %s, %s", mask, t0, t0)
	g.op("VMOVDQU64 %s, 0(%s)", t0, zp)
	for j := 1; j < limbs; j++ {
		g.op("VPADDQ %s, %s, %s", tk(j), c, w)
		if j < limbs-1 {
			g.op("VPSRLQ $52, %s, %s", w, c)
			g.op("VPANDQ %s, %s, %s", mask, w, w)
		}
		g.op("VMOVDQU64 %s, %d(%s)", w, 64*j, zp)
	}
	g.op("VZEROUPPER")
	g.op("RET")
}

func main() {
	limbs := flag.Int("limbs", 10, "radix-2^52 limbs per lane: 10, 20 or 40")
	out := flag.String("out", "", "write the assembly to this file instead of stdout")
	flag.Parse()

	g := gen{limbs: *limbs}
	g.line("// Code generated by gen_lanes.go; DO NOT EDIT.")
	g.line("")
	g.line("#include \"textflag.h\"")
	g.line("")
	switch g.limbs {
	case 10, 20:
		g.inRegisters()
	case 40:
		g.streaming()
	default:
		log.Fatalf("-limbs %d: want 10, 20 or 40", g.limbs)
	}

	if *out == "" {
		os.Stdout.Write(g.Bytes())
		return
	}
	if err := os.WriteFile(*out, g.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
