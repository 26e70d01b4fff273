package faultpoint

import (
	"testing"
	"time"
)

func TestDisarmedIsFree(t *testing.T) {
	Reset()
	if o := Eval("any.point", 3); o.Fired() {
		t.Fatalf("disarmed Eval fired: %+v", o)
	}
}

func TestArmGrammar(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := Arm("a.b=drop,step=1,times=2; c.d=delay,ms=5 ;e.f=error,nth=3"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"noequals",
		"x.y=explode",
		"x.y=drop,step",
		"x.y=drop,step=-1",
		"x.y=drop,nth=0",
		"x.y=drop,wat=1",
	} {
		if err := Arm(bad); err == nil {
			t.Fatalf("Arm(%q) accepted", bad)
		}
	}
}

func TestStepScopingAndBudget(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := Arm("p=drop,step=2,times=2"); err != nil {
		t.Fatal(err)
	}
	if o := Eval("p", 1); o.Fired() {
		t.Fatal("fired at wrong step")
	}
	if o := Eval("p", -1); o.Fired() {
		t.Fatal("step-scoped point fired at step-less site")
	}
	if o := Eval("p", 2); o.Act != Drop {
		t.Fatalf("want Drop at step 2, got %+v", o)
	}
	if o := Eval("p", 2); o.Act != Drop {
		t.Fatalf("second budgeted firing missing: %+v", o)
	}
	if o := Eval("p", 2); o.Fired() {
		t.Fatal("fired past its times= budget")
	}
	if Hits("p") != 2 {
		t.Fatalf("Hits = %d, want 2", Hits("p"))
	}
}

func TestNthAndUnlimited(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := Arm("dial=error,nth=3,times=0"); err != nil {
		t.Fatal(err)
	}
	if Eval("dial", -1).Fired() || Eval("dial", -1).Fired() {
		t.Fatal("fired before the 3rd call")
	}
	for i := 0; i < 5; i++ {
		o := Eval("dial", -1)
		if o.Act != Error || o.Err == nil {
			t.Fatalf("call %d: want injected error, got %+v", i+3, o)
		}
	}
}

func TestDelayCarriesDuration(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := Arm("wire=delay,ms=7"); err != nil {
		t.Fatal(err)
	}
	o := Eval("wire", 0)
	if o.Act != Delay || o.Sleep != 7*time.Millisecond {
		t.Fatalf("got %+v, want 7ms delay", o)
	}
}
