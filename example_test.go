package walrus_test

import (
	"context"
	"fmt"

	"walrus"
	"walrus/internal/imgio"
)

// exampleScene paints a base color with one square object, the smallest
// interesting input for region-based retrieval.
func exampleScene(br, bg, bb, or, og, ob float64, x, y, side int) *imgio.Image {
	im := imgio.New(128, 128, 3)
	im.FillRGB(br, bg, bb)
	for yy := y; yy < y+side; yy++ {
		for xx := x; xx < x+side; xx++ {
			im.SetRGB(xx, yy, or, og, ob)
		}
	}
	return im
}

// Example indexes two images and retrieves the one whose regions match a
// query with the shared object at a different location.
func Example() {
	db, err := walrus.New(walrus.DefaultOptions())
	if err != nil {
		panic(err)
	}
	// Red square on green, bottom-right.
	_ = db.Add("red-on-green", exampleScene(0.15, 0.6, 0.2, 0.85, 0.1, 0.1, 70, 70, 50))
	// Blue square on gray.
	_ = db.Add("blue-on-gray", exampleScene(0.5, 0.5, 0.5, 0.1, 0.2, 0.85, 20, 20, 50))

	// Query: the red square moved to the top-left corner.
	query := exampleScene(0.15, 0.6, 0.2, 0.85, 0.1, 0.1, 8, 8, 50)
	matches, _, err := db.QueryContext(context.Background(), query, walrus.DefaultQueryParams())
	if err != nil {
		panic(err)
	}
	fmt.Println("best match:", matches[0].ID)
	// Output: best match: red-on-green
}

// ExampleDB_QuerySceneContext retrieves images containing a user-selected
// rectangle of the query image — the "user-specified scene".
func ExampleDB_QuerySceneContext() {
	db, err := walrus.New(walrus.DefaultOptions())
	if err != nil {
		panic(err)
	}
	_ = db.Add("has-object", exampleScene(0.15, 0.6, 0.2, 0.85, 0.1, 0.1, 60, 60, 64))
	_ = db.Add("no-object", exampleScene(0.5, 0.5, 0.5, 0.1, 0.2, 0.85, 20, 20, 64))

	// The query image contains the object top-left plus unrelated clutter;
	// select only the object's rectangle.
	query := exampleScene(0.15, 0.6, 0.2, 0.85, 0.1, 0.1, 0, 0, 64)
	for y := 80; y < 120; y++ {
		for x := 20; x < 120; x++ {
			query.SetRGB(x, y, 0.9, 0.9, 0.2)
		}
	}
	matches, _, err := db.QuerySceneContext(context.Background(), query, 0, 0, 64, 64, walrus.DefaultQueryParams())
	if err != nil {
		panic(err)
	}
	fmt.Println("best match:", matches[0].ID)
	// Output: best match: has-object
}

// ExampleDB_Stats shows database introspection.
func ExampleDB_Stats() {
	db, err := walrus.New(walrus.DefaultOptions())
	if err != nil {
		panic(err)
	}
	_ = db.Add("one", exampleScene(0.15, 0.6, 0.2, 0.85, 0.1, 0.1, 10, 10, 50))
	s := db.Stats()
	fmt.Printf("images=%d dim=%d disk=%v\n", s.Images, s.SignatureDim, s.DiskBacked)
	// Output: images=1 dim=12 disk=false
}
