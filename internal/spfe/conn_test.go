package spfe

import (
	"math/big"
	"net"
	"testing"

	"privstats/internal/database"
	"privstats/internal/selectedsum"
	"privstats/internal/wire"
)

// TestWeightedQueryOverWire runs a weighted sum against the REAL server
// over a pipe: the server is oblivious to whether the vector is 0/1 or
// arbitrary weights.
func TestWeightedQueryOverWire(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	table := database.New([]uint32{7, 11, 13, 17})
	w, err := NewWeights([]*big.Int{
		big.NewInt(2), big.NewInt(0), big.NewInt(1), big.NewInt(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2*7 + 0 + 13 + 5*17)

	a, b := net.Pipe()
	clientConn := wire.NewConn(a)
	serverConn := wire.NewConn(b)
	defer clientConn.Close()
	defer serverConn.Close()
	errc := make(chan error, 1)
	go func() { errc <- selectedsum.ServeSource(serverConn, table, nil) }()

	sums, err := selectedsum.QueryVector(clientConn, sk, Source{PK: pk, W: w}, 2, 0)
	if err != nil {
		t.Fatalf("QueryVector: %v", err)
	}
	if sums[0].Int64() != want {
		t.Errorf("weighted sum over wire = %v, want %d", sums[0], want)
	}
	if err := <-errc; err != nil {
		t.Errorf("Serve: %v", err)
	}
}

func TestQueryVectorValidation(t *testing.T) {
	sk := testKey(t)
	if _, err := selectedsum.QueryVector(nil, sk, nil, 0, 0); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := selectedsum.QueryVector(nil, nil, Source{}, 0, 0); err == nil {
		t.Error("nil key should fail")
	}
}

func TestSourceRejectsOversizedWeight(t *testing.T) {
	sk := testKey(t)
	pk := sk.PublicKey()
	huge := new(big.Int).Lsh(big.NewInt(1), 400)
	w, _ := NewWeights([]*big.Int{huge})
	if _, err := (Source{PK: pk, W: w}).EncryptAt(0); err == nil {
		t.Error("oversized weight should fail")
	}
}
