//go:build ignore

// gen_mont writes montN_amd64.s: montMulN, a Montgomery multiply mod an odd
// N-word modulus for BMI2+ADX amd64, for N = 8, 16 or 32. Run it with
// `go generate` in internal/mathx (it writes the file given by -out) or
// `go run gen_mont.go -words N` (it writes to stdout); TestMontGenerated fails
// when a committed file differs from this program's output.
//
// Every width is CIOS (Koç, Acar and Kaliski, "Analyzing and comparing
// Montgomery multiplication algorithms", 1996): for each word y[i] the kernel
// adds x·y[i] to the accumulator t, then adds q·m with q = t[0]·k0 mod 2⁶⁴ so
// that the low word cancels, and drops that word. Every word product is one
// MULXQ, and its low and high halves ride two independent carry chains, ADOXQ
// (OF) and ADCXQ (CF). With x and y anywhere in [0, R), t stays below R + m
// < 2R between rounds: N words, an (N+1)th that holds 0 or 1, and an (N+2)th
// that catches the carry out of it within a round. The result keeps the
// contract of the fold's addMulVVW montMul, bit for bit: t when the (N+1)th
// word is 0, else t − m, selected by CMOVQCS without a branch.
//
// At 8 words t lives in ten registers, and dropping a word renames the
// registers instead of moving values: the register that held t[0] becomes the
// next round's tenth word. At 16 and 32 words it does not fit beside MULXQ's
// DX and three pointers, so the low N words live on the stack and each row
// streams through them, one load and one store per word; the two top words
// stay in registers, t[0] is held in one from the row of x to the row of m
// that cancels it, and the rounds after the first are a loop.
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
	n int // words
}

func (g *gen) op(format string, args ...any) {
	fmt.Fprintf(&g.Buffer, "\t"+format+"\n", args...)
}

func (g *gen) line(format string, args ...any) {
	fmt.Fprintf(&g.Buffer, format+"\n", args...)
}

// lo and hi take MULXQ's halves (lo doubles as a zero register); DX is
// MULXQ's implicit multiplier.
const (
	lo = "AX"
	hi = "R14"
)

// header opens the TEXT block of montMulN with a frame of the given size.
func (g *gen) header(frame int) {
	g.line("// func montMul%d(z, x, y, m *big.Word, k0 big.Word)", g.n)
	g.line("TEXT ·montMul%d(SB), NOSPLIT, $%d-40", g.n, frame)
}

// selectOut finishes every width: t's low n words are in src(j), its (n+1)th
// word in top, and m's address in the register m. It stores t − m to z, then
// puts t back wherever top is 0. z is written only here, after the last read
// of x and y, so it may alias either. p is a free register for z's address.
// Where src names registers, t − m is formed in them and t restored from z;
// else w is a free register each word passes through.
func (g *gen) selectOut(src func(j int) string, top, m, p, w string) {
	n := g.n
	sub := func(j int, dst string) {
		if j == 0 {
			g.op("SUBQ 0(%s), %s", m, dst)
		} else {
			g.op("SBBQ %d(%s), %s", 8*j, m, dst)
		}
	}
	g.op("MOVQ z+0(FP), %s", p)
	if w == "" {
		for j := 0; j < n; j++ {
			g.op("MOVQ %s, %d(%s)", src(j), 8*j, p)
		}
		for j := 0; j < n; j++ {
			sub(j, src(j))
		}
		g.op("SUBQ $1, %s // borrow iff top is 0: then t is the result", top)
		for j := 0; j < n; j++ {
			g.op("CMOVQCS %d(%s), %s", 8*j, p, src(j))
		}
		for j := 0; j < n; j++ {
			g.op("MOVQ %s, %d(%s)", src(j), 8*j, p)
		}
		g.op("RET")
		return
	}
	for j := 0; j < n; j++ {
		g.op("MOVQ %s, %s", src(j), w)
		sub(j, w)
		g.op("MOVQ %s, %d(%s)", w, 8*j, p)
	}
	g.op("SUBQ $1, %s // borrow iff top is 0: then t is the result", top)
	for j := 0; j < n; j++ {
		g.op("MOVQ %d(%s), %s", 8*j, p, w)
		g.op("CMOVQCS %s, %s", src(j), w)
		g.op("MOVQ %s, %d(%s)", w, 8*j, p)
	}
	g.op("RET")
}

// Register roles at 8 words. t rotates through tregs; p is the one pointer
// register, reloaded from the argument frame for x, y, m and z in turn.
var tregs = []string{"BX", "CX", "SI", "DI", "R8", "R9", "R10", "R11", "R12", "R13"}

const p = "R15"

// mulAdd adds DX·[p] into t[0..n+1] with the two carry chains, then settles
// both pending carries into t[n] and t[n+1]. The flags must be clear on entry.
func (g *gen) mulAdd(t []string) {
	n := g.n
	for j := 0; j < n; j++ {
		g.op("MULXQ %d(%s), %s, %s", 8*j, p, lo, hi)
		g.op("ADOXQ %s, %s", lo, t[j])
		g.op("ADCXQ %s, %s", hi, t[j+1])
	}
	g.op("MOVQ $0, %s", lo)
	g.op("ADOXQ %s, %s", lo, t[n])
	g.op("ADCXQ %s, %s", lo, t[n+1])
	g.op("ADOXQ %s, %s", lo, t[n+1])
}

// inRegisters is the 8-word kernel: t in ten registers, every round unrolled.
func (g *gen) inRegisters() {
	n := g.n
	g.header(0)
	t := append([]string(nil), tregs...)
	for i := 0; i < n; i++ {
		g.line("")
		g.op("// t += x·y[%d]", i)
		g.op("MOVQ y+16(FP), %s", p)
		g.op("MOVQ %d(%s), DX", 8*i, p)
		g.op("MOVQ x+8(FP), %s", p)
		// XORQ zeroes the tenth word and clears CF and OF for the chains.
		g.op("XORQ %s, %s", t[n+1], t[n+1])
		if i == 0 {
			// t is zero: the products' low halves are the words themselves
			// and only the high halves need a chain.
			g.op("MULXQ 0(%s), %s, %s", p, t[0], t[1])
			for j := 1; j < n; j++ {
				g.op("MULXQ %d(%s), %s, %s", 8*j, p, lo, t[j+1])
				g.op("ADCXQ %s, %s", lo, t[j])
			}
			g.op("ADCXQ %s, %s", t[n+1], t[n])
		} else {
			g.mulAdd(t)
		}
		g.op("// t += q·m, q = t[0]·k0, so t[0] cancels")
		g.op("MOVQ %s, DX", t[0])
		g.op("IMULQ k0+32(FP), DX")
		g.op("MOVQ m+24(FP), %s", p)
		g.op("XORQ %s, %s", lo, lo)
		g.mulAdd(t)
		t = append(t[1:], t[0])
	}
	g.line("")
	g.op("// t < R + m: t, or t − m if t ≥ R")
	g.op("MOVQ m+24(FP), DX")
	g.selectOut(func(j int) string { return t[j] }, t[n], "DX", p, "")
}

// Register roles at 16 and 32 words: the three pointers and k0 stay put, t0
// holds t[0] from a row of x to the row of m that cancels it, top and top1
// hold t[n] and t[n+1], a and b are the two words a row has in flight, and
// rounds counts the loop.
const (
	xp, yp, mp, k0 = "SI", "DI", "R8", "R9"
	t0, top, top1  = "R10", "R13", "R12"
	ra, rb, rounds = "CX", "R11", "R15"
)

// slot is where t[k], k < n, lives on the stack between rows.
func slot(k int) string { return fmt.Sprintf("%d(SP)", 8*k) }

// row adds DX·[v] into t, streaming: t[k] is read from src(k) and the sum
// written to dst(k), skipped where dst is empty. Each source is read two words
// before its destination is written, so a row may write where it read. The
// flags must be clear on entry.
func (g *gen) row(v string, src, dst func(k int) string) {
	n := g.n
	a, b := ra, rb
	g.op("MOVQ %s, %s", src(0), a)
	g.op("MOVQ %s, %s", src(1), b)
	for j := 0; j < n; j++ {
		g.op("MULXQ %d(%s), %s, %s", 8*j, v, lo, hi)
		g.op("ADOXQ %s, %s", lo, a)
		g.op("ADCXQ %s, %s", hi, b)
		if d := dst(j); d != "" {
			g.op("MOVQ %s, %s", a, d)
		}
		g.op("MOVQ %s, %s", src(j+2), a)
		a, b = b, a
	}
	g.op("MOVQ $0, %s", lo)
	g.op("ADOXQ %s, %s", lo, a)
	g.op("ADCXQ %s, %s", lo, b)
	g.op("ADOXQ %s, %s", lo, b)
	g.op("MOVQ %s, %s", a, dst(n))
	g.op("MOVQ %s, %s", b, dst(n+1))
}

// reduceRow is the row of m: q = t[0]·k0, t += q·m, and t shifts down a word
// on its way back to the stack.
func (g *gen) reduceRow() {
	n := g.n
	g.op("// t += q·m, q = t[0]·k0, so t[0] cancels; t shifts down a word")
	g.op("MOVQ %s, DX", t0)
	g.op("IMULQ %s, DX", k0)
	g.op("XORQ %s, %s", lo, lo)
	g.row(mp, func(k int) string {
		switch k {
		case 0:
			return t0
		case n:
			return top
		case n + 1:
			return top1
		}
		return slot(k)
	}, func(k int) string {
		switch k {
		case 0:
			return ""
		case n + 1:
			return top
		}
		return slot(k - 1)
	})
}

// streaming is the 16- and 32-word kernel.
func (g *gen) streaming() {
	n := g.n
	g.header(8 * n)
	g.op("MOVQ x+8(FP), %s", xp)
	g.op("MOVQ y+16(FP), %s", yp)
	g.op("MOVQ m+24(FP), %s", mp)
	g.op("MOVQ k0+32(FP), %s", k0)

	g.line("")
	g.op("// t = x·y[0]: the low halves are the words, the high halves one chain")
	g.op("MOVQ 0(%s), DX", yp)
	g.op("XORQ %s, %s", lo, lo)
	a, b := ra, rb
	g.op("MULXQ 0(%s), %s, %s", xp, t0, a)
	for j := 1; j < n; j++ {
		g.op("MULXQ %d(%s), %s, %s", 8*j, xp, lo, b)
		g.op("ADCXQ %s, %s", lo, a)
		g.op("MOVQ %s, %s", a, slot(j))
		a, b = b, a
	}
	g.op("MOVQ $0, %s", lo)
	g.op("ADCXQ %s, %s", lo, a)
	g.op("MOVQ %s, %s", a, top)
	g.op("MOVQ $0, %s", top1)
	g.reduceRow()

	g.line("")
	g.op("MOVQ $%d, %s", n-1, rounds)
	g.line("round:")
	g.op("// t += x·y[i]")
	g.op("ADDQ $8, %s", yp)
	g.op("MOVQ 0(%s), DX", yp)
	g.op("XORQ %s, %s", lo, lo)
	g.row(xp, func(k int) string {
		switch k {
		case 0:
			return slot(0)
		case n:
			return top
		case n + 1:
			return "$0"
		}
		return slot(k)
	}, func(k int) string {
		switch k {
		case 0:
			return t0
		case n:
			return top
		case n + 1:
			return top1
		}
		return slot(k)
	})
	g.reduceRow()
	g.op("DECQ %s", rounds)
	g.op("JNZ round")

	g.line("")
	g.op("// t < R + m: t, or t − m if t ≥ R")
	g.selectOut(slot, top, mp, xp, ra)
}

func main() {
	words := flag.Int("words", 8, "the modulus width in words: 8, 16 or 32")
	out := flag.String("out", "", "write the assembly to this file instead of stdout")
	flag.Parse()

	g := gen{n: *words}
	g.line("// Code generated by gen_mont.go -words %d; DO NOT EDIT.", g.n)
	g.line("")
	g.line("#include \"textflag.h\"")
	g.line("")
	switch g.n {
	case 8:
		g.inRegisters()
	case 16, 32:
		g.streaming()
	default:
		log.Fatalf("-words %d: only 8, 16 and 32 are generated", g.n)
	}

	if *out == "" {
		os.Stdout.Write(g.Bytes())
		return
	}
	if err := os.WriteFile(*out, g.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
