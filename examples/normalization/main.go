// Normalization: the paper's headline use case (§1). Discover the
// functional dependencies of a denormalized order table, derive its
// candidate keys, and decompose it into Boyce-Codd normal form — redundancy
// such as CustName repeating per CustID disappears into its own relation.
//
// Run with:
//
//	go run ./examples/normalization
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"strings"

	"hyfd"
	"hyfd/internal/closure"
)

func main() {
	rel := buildOrders()
	fmt.Printf("schema: %s(%s), %d rows\n\n", rel.Name,
		strings.Join(rel.Columns, ", "), rel.NumRows())

	result, err := hyfd.Run(context.Background(), hyfd.Request{Relation: rel})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered %d minimal FDs, e.g.:\n", len(result.FDs))
	for i, f := range result.FDs {
		if i == 6 {
			fmt.Println("  ...")
			break
		}
		fmt.Println(" ", f.Format(rel))
	}

	keys := closure.CandidateKeys(result.Set, rel.NumCols())
	fmt.Println("\ncandidate keys:")
	for _, k := range keys {
		fmt.Println(" ", attrNames(rel, k))
	}

	fmt.Println("\nBCNF decomposition:")
	for _, sub := range closure.BCNF(result.Set, rel.NumCols()) {
		fmt.Printf("  R(%s) with key {%s}\n", attrNames(rel, sub.Attrs), attrNames(rel, sub.Key))
	}

	fmt.Println("\n3NF synthesis (dependency preserving):")
	for _, sub := range closure.ThirdNF(result.Set, rel.NumCols()) {
		fmt.Printf("  R(%s) with key {%s}\n", attrNames(rel, sub.Attrs), attrNames(rel, sub.Key))
	}
}

// buildOrders constructs a classic denormalized table: every order row
// repeats the customer's name and city, and the city repeats its country.
func buildOrders() *hyfd.Relation {
	rel := hyfd.NewRelation("orders",
		[]string{"OrderID", "CustID", "CustName", "City", "Country", "Item", "Qty"})
	custs := []struct{ name, city, country string }{
		{"Ada", "Potsdam", "DE"},
		{"Bob", "Berlin", "DE"},
		{"Cyn", "Paris", "FR"},
		{"Dee", "Lyon", "FR"},
	}
	items := []string{"chair", "table", "lamp", "desk", "sofa"}
	for i := 0; i < 40; i++ {
		c := custs[i%len(custs)]
		rel.AppendRow([]string{
			strconv.Itoa(1000 + i),
			strconv.Itoa(i % len(custs)),
			c.name, c.city, c.country,
			items[(i*3)%len(items)],
			strconv.Itoa(1 + (i*i)%3),
		})
	}
	return rel
}

func attrNames(rel *hyfd.Relation, attrs hyfd.AttrSet) string {
	var names []string
	attrs.ForEach(func(a int) bool {
		names = append(names, rel.Columns[a])
		return true
	})
	return strings.Join(names, ", ")
}
