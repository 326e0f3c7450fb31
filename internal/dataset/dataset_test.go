package dataset

import "testing"

func TestKnownDatasets(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("Names = %v, want 3 datasets", names)
	}
	for _, n := range names {
		d, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name != n {
			t.Fatalf("Lookup(%q).Name = %q", n, d.Name)
		}
		if d.NumImages <= 0 || d.NumClasses <= 0 || d.SizeBytes <= 0 {
			t.Fatalf("degenerate descriptor: %+v", d)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("mnist"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestCIFAR10MatchesPaper(t *testing.T) {
	d := CIFAR10()
	if d.NumClasses != 10 || d.SampleH != 32 || d.SampleW != 32 {
		t.Fatalf("CIFAR-10 descriptor wrong: %+v", d)
	}
	// Paper: ≈163 MB.
	if mb := d.SizeBytes >> 20; mb != 163 {
		t.Fatalf("CIFAR-10 size = %d MB, want 163", mb)
	}
}

func TestTinyImageNetMatchesPaper(t *testing.T) {
	d := TinyImageNet()
	if d.NumImages != 100000 || d.NumClasses != 200 || d.SampleH != 64 {
		t.Fatalf("Tiny-ImageNet descriptor wrong: %+v", d)
	}
	if mb := d.SizeBytes >> 20; mb != 250 {
		t.Fatalf("Tiny-ImageNet size = %d MB, want 250", mb)
	}
}

func TestGraphConfig(t *testing.T) {
	cfg := TinyImageNet().GraphConfig()
	if cfg.InputH != 64 || cfg.InputW != 64 || cfg.InputChannels != 3 || cfg.NumClasses != 200 {
		t.Fatalf("GraphConfig = %+v", cfg)
	}
}
