package secretshare_test

import (
	"fmt"
	"math/rand"

	"repro/internal/secretshare"
)

// Splitting a weight vector into additive shares and reconstructing it.
func ExampleMaskDivider_DivideInto() {
	rng := rand.New(rand.NewSource(1))
	secret := []float64{10, 20, 30}
	shares, _, err := secretshare.MaskDivider{Scale: 50}.DivideInto(secret, 3, rng, nil, nil)
	if err != nil {
		panic(err)
	}
	back, err := secretshare.Reconstruct(shares)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.0f\n", back)
	// Output: [10 20 30]
}

// Under k-out-of-n replication, each peer holds n−k+1 consecutive
// shares, so any k survivors still cover all shares.
func ExampleReplicaIndices() {
	for peer := 0; peer < 3; peer++ {
		idx, _ := secretshare.ReplicaIndices(peer, 3, 2)
		fmt.Println(peer, idx)
	}
	// Output:
	// 0 [0 1]
	// 1 [1 2]
	// 2 [2 0]
}

// HoldersOf answers the recovery question of the paper's Alg. 4: whom
// can the leader ask for a crashed peer's subtotal?
func ExampleHoldersOf() {
	holders, _ := secretshare.HoldersOf(2, 3, 2)
	fmt.Println(holders)
	// Output: [1 2]
}
