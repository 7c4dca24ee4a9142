package lib

import "encoding/json"

// counter's fields are only stored into: incremented, assigned from
// themselves, written and deleted by element.
type counter struct {
	hits, total int
	seen        map[string]bool
}

type probe struct{ last float64 } // read only by a test
type knob struct{ verbose bool }  // set only by a test

// Comparing or hashing a struct reads all its fields; a tag marks a read
// by reflection.
type key struct{ a, b int }
type pair struct{ x, y int }
type wire struct {
	ID int `json:"id"`
}

// json.Marshal reads Report's exported fields, promoted ones included.
type Report struct {
	Item
	Name, note string
}
type Item struct{ Value int }

type kept struct{ spare int } // allowlisted

func Fields() ([]byte, error) {
	c := &counter{seen: map[string]bool{}}
	c.hits++
	c.total = c.total + 1
	c.seen["x"] = true
	delete(c.seen, "y")
	_ = probe{last: 1}
	var k knob
	if k.verbose {
		return nil, nil
	}
	_ = map[key]int{{1, 2}: 3}
	_ = pair{x: 1, y: 2} == pair{x: 1, y: 2}
	_, _ = wire{ID: 1}, kept{spare: 1}
	return json.Marshal(Report{Item: Item{Value: 1}, Name: "r", note: "n"})
}
