package units

import "testing"

func TestScaleConstants(t *testing.T) {
	if 1000*Micron != Millimetre {
		t.Error("1000 um != 1 mm")
	}
	if 1000*MilliOhm != Ohm {
		t.Error("1000 mOhm != 1 Ohm")
	}
	if 1000*MilliWatt != Watt {
		t.Error("1000 mW != 1 W")
	}
	if 1000*MilliVolt != Volt {
		t.Error("1000 mV != 1 V")
	}
}
