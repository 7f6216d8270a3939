//go:build ignore

// gen_mont8 writes mont8_amd64.s: cpuid and montMul8, a Montgomery multiply
// mod an 8-word odd modulus unrolled into registers for BMI2+ADX amd64. Run
// it with `go generate` in internal/mathx (it writes the file given by -out)
// or `go run gen_mont8.go` (it writes to stdout); TestMont8Generated fails
// when the committed file differs from this program's output.
//
// montMul8 is CIOS (Koç, Acar and Kaliski, "Analyzing and comparing
// Montgomery multiplication algorithms", 1996): for each word y[i] it adds
// x·y[i] to the accumulator t, then adds q·m with q = t[0]·k0 mod 2⁶⁴ so that
// the low word cancels, and drops that word. t lives in ten registers: eight
// words, a ninth that holds 0 or 1 between iterations (t < 2m), and a tenth
// that catches the carry out of the ninth within one. Dropping a word renames
// the registers instead of moving values: the register that held t[0] becomes
// the next iteration's tenth word. Every word product is one MULXQ, and its low
// and high halves ride two independent carry chains, ADOXQ (OF) and ADCXQ
// (CF). The result, below 2m, is brought under m by one subtraction whose
// borrow selects, through CMOVQCS, between t and t − m without a branch.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
)

const words = 8

type gen struct{ bytes.Buffer }

func (g *gen) op(format string, args ...any) {
	fmt.Fprintf(&g.Buffer, "\t"+format+"\n", args...)
}

func (g *gen) line(format string, args ...any) {
	fmt.Fprintf(&g.Buffer, format+"\n", args...)
}

// Register roles. t rotates through tregs; lo and hi take MULXQ's halves (lo
// doubles as a zero register), DX is MULXQ's implicit multiplier and p the
// one pointer register, reloaded from the argument frame for x, y, m and z in
// turn.
var tregs = []string{"BX", "CX", "SI", "DI", "R8", "R9", "R10", "R11", "R12", "R13"}

const (
	lo = "AX"
	hi = "R14"
	p  = "R15"
)

func (g *gen) cpuid() {
	g.line("// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)")
	g.line("TEXT ·cpuid(SB), NOSPLIT, $0-24")
	g.op("MOVL leaf+0(FP), AX")
	g.op("MOVL sub+4(FP), CX")
	g.op("CPUID")
	g.op("MOVL AX, eax+8(FP)")
	g.op("MOVL BX, ebx+12(FP)")
	g.op("MOVL CX, ecx+16(FP)")
	g.op("MOVL DX, edx+20(FP)")
	g.op("RET")
}

// mulAdd adds DX·[p] into t[0..words] with the two carry chains, then
// settles both pending carries into t[words] and t[words+1]. The flags must
// be clear on entry.
func (g *gen) mulAdd(t []string) {
	for j := 0; j < words; j++ {
		g.op("MULXQ %d(%s), %s, %s", 8*j, p, lo, hi)
		g.op("ADOXQ %s, %s", lo, t[j])
		g.op("ADCXQ %s, %s", hi, t[j+1])
	}
	g.op("MOVQ $0, %s", lo)
	g.op("ADOXQ %s, %s", lo, t[words])
	g.op("ADCXQ %s, %s", lo, t[words+1])
	g.op("ADOXQ %s, %s", lo, t[words+1])
}

func (g *gen) montMul8() {
	g.line("// func montMul8(z, x, y, m *[8]big.Word, k0 big.Word)")
	g.line("TEXT ·montMul8(SB), NOSPLIT, $0-40")
	t := append([]string(nil), tregs...)
	for i := 0; i < words; i++ {
		g.line("")
		g.op("// t += x·y[%d]", i)
		g.op("MOVQ y+16(FP), %s", p)
		g.op("MOVQ %d(%s), DX", 8*i, p)
		g.op("MOVQ x+8(FP), %s", p)
		// XORQ zeroes the tenth word and clears CF and OF for the chains.
		g.op("XORQ %s, %s", t[words+1], t[words+1])
		if i == 0 {
			// t is zero: the products' low halves are the words themselves
			// and only the high halves need a chain.
			g.op("MULXQ 0(%s), %s, %s", p, t[0], t[1])
			for j := 1; j < words; j++ {
				g.op("MULXQ %d(%s), %s, %s", 8*j, p, lo, t[j+1])
				g.op("ADCXQ %s, %s", lo, t[j])
			}
			g.op("ADCXQ %s, %s", t[words+1], t[words])
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
	g.op("// t < 2m: store t, then overwrite it with t − m unless that borrows")
	g.op("MOVQ z+0(FP), %s", p)
	g.op("MOVQ m+24(FP), DX")
	for j := 0; j < words; j++ {
		g.op("MOVQ %s, %d(%s)", t[j], 8*j, p)
	}
	g.op("SUBQ 0(DX), %s", t[0])
	for j := 1; j < words; j++ {
		g.op("SBBQ %d(DX), %s", 8*j, t[j])
	}
	g.op("SBBQ $0, %s", t[words])
	for j := 0; j < words; j++ {
		g.op("CMOVQCS %d(%s), %s", 8*j, p, t[j])
	}
	for j := 0; j < words; j++ {
		g.op("MOVQ %s, %d(%s)", t[j], 8*j, p)
	}
	g.op("RET")
}

func main() {
	out := flag.String("out", "", "write the assembly to this file instead of stdout")
	flag.Parse()

	var g gen
	g.line("// Code generated by gen_mont8.go; DO NOT EDIT.")
	g.line("")
	g.line("#include \"textflag.h\"")
	g.line("")
	g.cpuid()
	g.line("")
	g.montMul8()

	if *out == "" {
		os.Stdout.Write(g.Bytes())
		return
	}
	if err := os.WriteFile(*out, g.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
