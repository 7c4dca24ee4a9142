package lib

// Listed is allowlisted by its type key, which covers the type alone:
// its unused method and field are still reported. Only its methods'
// receivers name it, and they are no use of it, so the key matches.
type Listed struct{ spare int }

func (Listed) String() string { return "listed" }

func (Listed) Unused() {}
