package x

// FromAPI is reached from the root package's exported API.
func FromAPI() int { return 1 }

// FromHarness is reached only from the paper harness.
func FromHarness() {}

// Spin is used only as a goroutine.
func Spin(done chan struct{}) { close(done) }

// Unreached is called by nothing.
func Unreached() int { return 2 }

// TestOnly is called only from x_test.go.
func TestOnly() int { return 3 }

// Temp reaches fmt through its String method.
type Temp float64

func (t Temp) String() string { return "temp" }

// Unused is a method nothing calls.
func (t Temp) Unused() float64 { return float64(t) }

// ByLen sorts through sort.Interface.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Shape is a program interface.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is not part of Shape and nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// engine's methods are reached only through the table below.
type engine struct{ k int }

func (e *engine) double(v int) int { return 2 * v * e.k }

var table = map[string]func(*engine, int) int{"double": (*engine).double}

// Dispatch calls through the package-level table.
func Dispatch(name string, v int) int { return table[name](&engine{k: 1}, v) }

// Box is generic; its methods are reached through an instance.
type Box[V any] struct{ v V }

// NewBox returns a box holding v.
func NewBox[V any](v V) *Box[V] { return &Box[V]{v: v} }

func (b *Box[V]) Get() V { return b.v }

func (b *Box[V]) Put(v V) { b.v = v }

// Kept is an entry point only a test uses; the directive roots it and
// its helper.
//
//lint:ignore deadcode kept for the corpus test
func Kept() int { return keptHelper() }

func keptHelper() int { return 4 }

// Stale is reached from main, so its directive suppresses nothing.
//
//lint:ignore deadcode stale on purpose
func Stale() int { return 5 }
