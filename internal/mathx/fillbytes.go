package mathx

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// FillBytes sets buf to the absolute value of v as a zero-extended big-endian
// byte string and returns buf, as v.FillBytes(buf) does, and like it panics
// when the value does not fit. It stores one big.Word at a time where math/big
// stores one byte, which is what a fixed-width ciphertext encoder pays per row.
func FillBytes(buf []byte, v *big.Int) []byte {
	const wordBytes = bits.UintSize / 8
	words := v.Bits()
	i := len(buf)
	for k, w := range words {
		if i >= wordBytes {
			i -= wordBytes
			if wordBytes == 8 {
				binary.BigEndian.PutUint64(buf[i:], uint64(w))
			} else {
				binary.BigEndian.PutUint32(buf[i:], uint32(w))
			}
			continue
		}
		// The buffer ends inside w: only the top word may reach here, and
		// only with no bits above the buffer.
		if k != len(words)-1 || bits.Len(uint(w)) > 8*i {
			panic("mathx: FillBytes: buffer too small to fit value")
		}
		for ; i > 0; i-- {
			buf[i-1] = byte(w)
			w >>= 8
		}
	}
	clear(buf[:i])
	return buf
}
