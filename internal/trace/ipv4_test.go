package trace

import (
	"testing"
	"testing/quick"
)

func TestMakeIPv4Octets(t *testing.T) {
	ip := MakeIPv4(203, 178, 148, 19)
	a, b, c, d := ip.Octets()
	if a != 203 || b != 178 || c != 148 || d != 19 {
		t.Fatalf("Octets() = %d.%d.%d.%d, want 203.178.148.19", a, b, c, d)
	}
}

func TestIPv4String(t *testing.T) {
	cases := []struct {
		ip   IPv4
		want string
	}{
		{MakeIPv4(0, 0, 0, 0), "0.0.0.0"},
		{MakeIPv4(255, 255, 255, 255), "255.255.255.255"},
		{MakeIPv4(10, 0, 0, 1), "10.0.0.1"},
		{MakeIPv4(192, 168, 1, 254), "192.168.1.254"},
	}
	for _, c := range cases {
		if got := c.ip.String(); got != c.want {
			t.Errorf("String(%#x) = %q, want %q", uint32(c.ip), got, c.want)
		}
	}
}

func TestParseIPv4RoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		ip := IPv4(raw)
		parsed, err := ParseIPv4(ip.String())
		return err == nil && parsed == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseIPv4Errors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "-1.2.3.4"}
	for _, s := range bad {
		if _, err := ParseIPv4(s); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded, want error", s)
		}
	}
}
