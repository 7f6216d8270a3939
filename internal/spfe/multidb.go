package spfe

import (
	"errors"
	"fmt"
	"math/big"

	"privstats/internal/database"
	"privstats/internal/homomorphic"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// Multi-database extension: the client's data of interest is spread over
// several independently operated databases (the paper: "this protocol, as
// well as some of the others of Canetti et al., can easily be extended to
// work for multiple distributed databases").
//
// The client views the union as one logical vector and prepares one
// selection over the concatenation. Each server folds its shard of the
// encrypted index vector against its own data. The encrypted partial sums
// are then chained server to server — server s homomorphically adds its
// partial onto the running ciphertext — so the client receives ONE
// ciphertext and never sees any per-database partial sum, and no server
// sees anything but ciphertexts under the client's key.

// MultiDBResult reports a multi-database query.
type MultiDBResult struct {
	// Sum is the total over all databases.
	Sum *big.Int
	// PerServerRows records each database's size (for reporting).
	PerServerRows []int
	// BytesUp is the total encrypted-index traffic to all servers;
	// ChainBytes is the server-to-server ciphertext chain traffic.
	BytesUp, ChainBytes int64
}

// MultiDatabaseSum privately sums the selected rows across the given
// tables. sel covers the concatenation of all tables in order. chunkSize 0
// sends each database its slice in a single chunk; negative values are
// rejected.
func MultiDatabaseSum(sk homomorphic.PrivateKey, tables []*database.Table, sel *database.Selection, chunkSize int) (*MultiDBResult, error) {
	if sk == nil {
		return nil, errors.New("spfe: nil private key")
	}
	if chunkSize < 0 {
		return nil, fmt.Errorf("spfe: negative chunk size %d", chunkSize)
	}
	if len(tables) == 0 {
		return nil, errors.New("spfe: no databases")
	}
	total := 0
	for i, t := range tables {
		if t == nil {
			return nil, fmt.Errorf("spfe: table %d is nil", i)
		}
		total += t.Len()
	}
	if sel.Len() != total {
		return nil, fmt.Errorf("spfe: selection covers %d rows, databases hold %d", sel.Len(), total)
	}
	pk := sk.PublicKey()
	width := pk.CiphertextSize()
	enc := selectedsum.Online{PK: pk}

	res := &MultiDBResult{PerServerRows: make([]int, len(tables))}

	// chain is the running encrypted total passed server to server.
	var chain homomorphic.Ciphertext
	offset := 0
	for s, t := range tables {
		res.PerServerRows[s] = t.Len()
		n := t.Len()
		session, err := selectedsum.NewShardSession(pk, t.Column(), uint64(n), 0)
		if err != nil {
			return nil, fmt.Errorf("spfe: server %d session: %w", s, err)
		}
		cs := chunkSize
		if cs <= 0 || cs > n {
			cs = n
		}
		for lo := 0; lo < n; lo += cs {
			hi := lo + cs
			if hi > n {
				hi = n
			}
			body, err := encryptShard(enc, sel, offset+lo, offset+hi, width)
			if err != nil {
				return nil, err
			}
			chunk := &wire.IndexChunk{Offset: uint64(lo), Ciphertexts: body, Width: width}
			payload := chunk.Encode()
			res.BytesUp += int64(wire.FrameOverhead + len(payload))
			decoded, err := wire.DecodeIndexChunk(payload, width)
			if err != nil {
				return nil, err
			}
			if err := session.Absorb(decoded); err != nil {
				return nil, fmt.Errorf("spfe: server %d absorb: %w", s, err)
			}
		}
		partial, err := session.Finalize(nil)
		if err != nil {
			return nil, fmt.Errorf("spfe: server %d finalize: %w", s, err)
		}
		if chain == nil {
			chain = partial
		} else {
			chain, err = pk.Add(chain, partial)
			if err != nil {
				return nil, fmt.Errorf("spfe: server %d chain add: %w", s, err)
			}
			res.ChainBytes += int64(width)
		}
		offset += n
	}

	sum, err := sk.Decrypt(chain)
	if err != nil {
		return nil, fmt.Errorf("spfe: decrypting chained total: %w", err)
	}
	res.Sum = sum
	return res, nil
}

// encryptShard encrypts selection bits for global positions [lo, hi).
func encryptShard(enc selectedsum.BitEncryptor, sel *database.Selection, lo, hi, width int) ([]byte, error) {
	return selectedsum.EncryptRange(enc, sel, lo, hi, width)
}
