package statusdb_test

import (
	"fmt"

	"ebv/internal/statusdb"
)

// Example walks the paper's Fig. 12: connect a block, spend one of its
// outputs from the next block, and probe the bits.
func Example() {
	db := statusdb.New()

	// Block 0 creates 3 outputs: vector 111.
	_ = db.Connect(0, 3, nil)

	// Block 1 creates 2 outputs and spends output 1 of block 0.
	_ = db.Connect(1, 2, []statusdb.Spend{{Height: 0, Pos: 1}})

	for p := uint32(0); p < 3; p++ {
		unspent, _ := db.IsUnspent(0, p)
		fmt.Printf("block 0 output %d unspent: %v\n", p, unspent)
	}
	fmt.Println("tracked unspent outputs:", db.UnspentCount())
	// Output:
	// block 0 output 0 unspent: true
	// block 0 output 1 unspent: false
	// block 0 output 2 unspent: true
	// tracked unspent outputs: 4
}
