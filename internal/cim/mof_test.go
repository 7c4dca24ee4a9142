package cim

import (
	"strings"
	"testing"
)

func TestParseClassAndInstance(t *testing.T) {
	src := `
// a comment
class Base {
	string Name;
};
class Node : Base {
	uint32 CPUMHz;
	uint32 Cores = 2;
	real32 Speed = 1.5;
	boolean Fast = false;
	string Tags[];
};
instance of Node {
	Name = "n1";
	CPUMHz = 3000;
	Fast = true;
	Tags = {"a", "b"};
};
`
	classes, instances, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 || len(instances) != 1 {
		t.Fatalf("got %d classes, %d instances", len(classes), len(instances))
	}
	node := classes[1]
	if node.Name != "Node" || node.Super != "Base" {
		t.Fatalf("class header wrong: %+v", node)
	}
	if len(node.Properties) != 5 {
		t.Fatalf("properties = %d", len(node.Properties))
	}
	if node.Properties[1].Default == nil || node.Properties[1].Default.I != 2 {
		t.Fatalf("default for Cores wrong: %+v", node.Properties[1])
	}
	in := instances[0]
	if in.GetString("Name") != "n1" || in.GetInt("CPUMHz") != 3000 {
		t.Fatalf("instance props wrong: %+v", in.Props)
	}
	v, _ := in.Get("Fast")
	if v.Kind != BoolValue || !v.B {
		t.Fatalf("bool prop wrong: %+v", v)
	}
	tags, _ := in.Get("Tags")
	if tags.Kind != ArrayValue || len(tags.Array) != 2 || tags.Array[1].S != "b" {
		t.Fatalf("array prop wrong: %+v", tags)
	}
}

func TestParseComments(t *testing.T) {
	src := `
/* block
   comment */
class C { string Name; }; // trailing
instance of C { Name = "x"; };
`
	_, instances, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 1 {
		t.Fatalf("instances = %d", len(instances))
	}
}

func TestParseStringEscapes(t *testing.T) {
	src := `class C { string Name; };
instance of C { Name = "a\"b\\c\nd"; };`
	_, instances, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := instances[0].GetString("Name"); got != "a\"b\\c\nd" {
		t.Fatalf("escaped string = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unterminated string", `class C { string Name; }; instance of C { Name = "x; };`},
		{"unterminated comment", `/* oops`},
		{"missing semicolon", `class C { string Name }`},
		{"bad declaration", `widget C {};`},
		{"instance without of", `class C { string Name; }; instance C {};`},
		{"duplicate property", `class C { string Name; }; instance of C { Name = "a"; Name = "b"; };`},
		{"bad escape", `class C { string Name; }; instance of C { Name = "\q"; };`},
		{"stray char", `class C { string Name; }; @`},
	}
	for _, c := range cases {
		if _, _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParseErrorsIncludeLine(t *testing.T) {
	src := "class C {\n string Name;\n};\nbogus"
	_, _, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error should name line 4: %v", err)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Value{Kind: StringValue, S: "x"}, `"x"`},
		{Value{Kind: IntValue, I: 42}, "42"},
		{Value{Kind: RealValue, F: 1.5}, "1.5"},
		{Value{Kind: BoolValue, B: true}, "true"},
		{Value{Kind: ArrayValue, Array: []Value{{Kind: IntValue, I: 1}, {Kind: IntValue, I: 2}}}, "{1, 2}"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueCoercions(t *testing.T) {
	if i, ok := (Value{Kind: RealValue, F: 3.9}).AsInt(); !ok || i != 3 {
		t.Errorf("AsInt(3.9) = %d, %v", i, ok)
	}
	if _, ok := (Value{Kind: StringValue}).AsInt(); ok {
		t.Errorf("string should not coerce to int")
	}
}

func TestNegativeNumbers(t *testing.T) {
	src := `class C { sint32 X; real32 Y; };
instance of C { X = -5; Y = -2.5; };`
	_, instances, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if instances[0].GetInt("X") != -5 || instances[0].Props["Y"].F != -2.5 {
		t.Fatalf("negative values wrong: %+v", instances[0].Props)
	}
}
