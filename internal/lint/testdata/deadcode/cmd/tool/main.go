package main

import (
	"fmt"
	"sort"

	"deadcorpus/internal/x"
)

func main() {
	done := make(chan struct{})
	go x.Spin(done)
	<-done

	fmt.Println(x.Temp(21)) // String is found by fmt, not by a call

	names := x.ByLen{"ccc", "a", "bb"}
	sort.Sort(names) // Len, Less and Swap are reached through sort.Interface
	fmt.Println(names)

	var s x.Shape = x.Square{Side: 2}
	fmt.Println(s.Area(), x.Dispatch("double", 3), x.NewBox(4).Get(), x.Stale())
}
