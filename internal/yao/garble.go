package yao

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Classic point-and-permute garbling. Each wire w gets two random labels
// L_w^0, L_w^1 with a permute bit in the label's last byte. Each gate's
// truth table is four encryptions of the output label under the two input
// labels, ordered by the inputs' permute bits, so the evaluator decrypts
// exactly one row without trial decryption.
//
// Deliberately NOT implemented: free-XOR, row reduction, half-gates. The
// 2004 Fairplay system this package stands in for predates them all, so the
// plain scheme gives the more faithful per-gate constant for the E8
// comparison.

// labelSize is the wire-label width in bytes (128-bit labels plus the
// permute bit stored in the low bit of the final byte).
const labelSize = 16

// label is one wire label.
type label [labelSize]byte

func (l label) permuteBit() uint8 { return l[labelSize-1] & 1 }

// wireLabels holds both labels of a wire.
type wireLabels struct {
	l0, l1 label
}

func (w wireLabels) pick(bit uint8) label {
	if bit == 0 {
		return w.l0
	}
	return w.l1
}

// GarbledGate is the four-row encrypted truth table.
type GarbledGate struct {
	Rows [4][labelSize]byte
}

// GarbledCircuit is what the generator ships to the evaluator: the circuit
// topology, the garbled tables, and the decoding information for outputs.
type GarbledCircuit struct {
	Circuit *Circuit
	Tables  []GarbledGate
	// OutputPerm maps each output wire's permute bit to the cleartext bit:
	// bit value = permute bit XOR OutputPerm[i].
	OutputPerm []uint8

	wires []wireLabels // generator-side secret; nil on the evaluator
}

// Garble garbles the circuit, returning the garbled form plus the
// generator's secret wire labels (needed to encode inputs).
func Garble(c *Circuit) (*GarbledCircuit, error) {
	if c == nil || len(c.Outputs) == 0 {
		return nil, errors.New("yao: cannot garble an empty circuit")
	}
	wires := make([]wireLabels, c.NumWires())
	for i := range wires {
		if _, err := rand.Read(wires[i].l0[:]); err != nil {
			return nil, fmt.Errorf("yao: sampling labels: %w", err)
		}
		if _, err := rand.Read(wires[i].l1[:]); err != nil {
			return nil, fmt.Errorf("yao: sampling labels: %w", err)
		}
		// Opposite permute bits so the evaluator's row choice is uniform.
		wires[i].l1[labelSize-1] = wires[i].l0[labelSize-1] ^ 1
	}

	gc := &GarbledCircuit{
		Circuit: c,
		Tables:  make([]GarbledGate, len(c.Gates)),
		wires:   wires,
	}
	for gi, g := range c.Gates {
		var table GarbledGate
		for va := uint8(0); va <= 1; va++ {
			for vb := uint8(0); vb <= 1; vb++ {
				la := wires[g.A].pick(va)
				lb := wires[g.B].pick(vb)
				out := wires[g.Out].pick(g.Op.Eval(va, vb))
				row := int(la.permuteBit())<<1 | int(lb.permuteBit())
				pad := rowKey(la, lb, gi)
				for i := 0; i < labelSize; i++ {
					table.Rows[row][i] = out[i] ^ pad[i]
				}
			}
		}
		gc.Tables[gi] = table
	}
	gc.OutputPerm = make([]uint8, len(c.Outputs))
	for i, w := range c.Outputs {
		// permute bit of the 0-label reveals the decoding.
		gc.OutputPerm[i] = wires[w].l0.permuteBit()
	}
	return gc, nil
}

// rowKey derives the one-time pad for a table row from the two input
// labels and the gate index.
func rowKey(la, lb label, gate int) [labelSize]byte {
	h := sha256.New()
	h.Write(la[:])
	h.Write(lb[:])
	var gid [8]byte
	binary.BigEndian.PutUint64(gid[:], uint64(gate))
	h.Write(gid[:])
	var out [labelSize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// EncodeInputs maps cleartext input bits to their wire labels. In a real
// deployment the evaluator's share of these travels via oblivious transfer;
// the cost model accounts for OT separately (see CostModel.OTPerBit).
func (gc *GarbledCircuit) EncodeInputs(inputs []uint8) ([]label, error) {
	if gc.wires == nil {
		return nil, errors.New("yao: only the generator can encode inputs")
	}
	if len(inputs) != gc.Circuit.NumInputs {
		return nil, fmt.Errorf("yao: %d inputs for %d input wires", len(inputs), gc.Circuit.NumInputs)
	}
	out := make([]label, len(inputs))
	for i, b := range inputs {
		if b > 1 {
			return nil, fmt.Errorf("yao: input %d is not a bit", i)
		}
		out[i] = gc.wires[i].pick(b)
	}
	return out, nil
}

// Evaluate runs the garbled circuit on encoded inputs and decodes the
// output bits. It uses only public information plus the input labels —
// the evaluator's view.
func (gc *GarbledCircuit) Evaluate(inputLabels []label) ([]uint8, error) {
	c := gc.Circuit
	if len(inputLabels) != c.NumInputs {
		return nil, fmt.Errorf("yao: %d labels for %d input wires", len(inputLabels), c.NumInputs)
	}
	wires := make([]label, c.NumWires())
	copy(wires, inputLabels)
	for gi, g := range c.Gates {
		la, lb := wires[g.A], wires[g.B]
		row := int(la.permuteBit())<<1 | int(lb.permuteBit())
		pad := rowKey(la, lb, gi)
		var out label
		for i := 0; i < labelSize; i++ {
			out[i] = gc.Tables[gi].Rows[row][i] ^ pad[i]
		}
		wires[g.Out] = out
	}
	bits := make([]uint8, len(c.Outputs))
	for i, w := range c.Outputs {
		bits[i] = wires[w].permuteBit() ^ gc.OutputPerm[i]
	}
	return bits, nil
}
