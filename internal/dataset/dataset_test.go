package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/packet"
)

func sampleDataset() *Dataset {
	return &Dataset{Traces: []Trace{
		{
			Vantage: "Perkins home", Batch: 1, Index: 0,
			Observations: []Observation{
				{Server: packet.MustParseAddr("16.9.2.0"), UDPReachable: true, UDPECTReachable: true, UDPAttempts: 1, TCPReachable: true, TCPECN: true, HTTPStatus: 302},
				{Server: packet.MustParseAddr("16.9.2.1"), UDPReachable: true, UDPECTReachable: false, UDPAttempts: 2},
			},
		},
		{
			Vantage: "EC2 Tokyo", Batch: 2, Index: 1,
			Observations: []Observation{
				{Server: packet.MustParseAddr("16.9.2.0"), UDPReachable: false},
			},
		},
	}}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 2 {
		t.Fatalf("traces = %d", len(got.Traces))
	}
	o := got.Traces[0].Observations[0]
	if o.Server != packet.MustParseAddr("16.9.2.0") || !o.UDPReachable || !o.TCPECN || o.HTTPStatus != 302 {
		t.Errorf("observation = %+v", o)
	}
	if got.Traces[1].Vantage != "EC2 Tokyo" || got.Traces[1].Batch != 2 {
		t.Errorf("trace meta = %+v", got.Traces[1])
	}
}

func TestAddressesSerializeAsDottedQuad(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleDataset()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"16.9.2.0"`) {
		t.Errorf("addresses not dotted-quad: %s", buf.String()[:120])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json}\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadEmpty(t *testing.T) {
	d, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Traces) != 0 {
		t.Error("phantom traces")
	}
}

func TestCountReachable(t *testing.T) {
	d := sampleDataset()
	udp, udpECT, tcp, tcpECN := d.Traces[0].CountReachable()
	if udp != 2 || udpECT != 1 || tcp != 1 || tcpECN != 1 {
		t.Errorf("counts = %d,%d,%d,%d", udp, udpECT, tcp, tcpECN)
	}
}

func TestVantagesAndFilter(t *testing.T) {
	d := sampleDataset()
	vs := d.Vantages()
	if len(vs) != 2 || vs[0] != "Perkins home" {
		t.Errorf("vantages = %v", vs)
	}
	if len(d.TracesFrom("EC2 Tokyo")) != 1 {
		t.Error("filter broken")
	}
	if len(d.TracesFrom("nowhere")) != 0 {
		t.Error("phantom traces from unknown vantage")
	}
}

func TestServersUnion(t *testing.T) {
	d := sampleDataset()
	servers := d.Servers()
	if len(servers) != 2 {
		t.Errorf("servers = %v", servers)
	}
}

// TestMarshalLineMatchesWrite pins the line contract: concatenating
// MarshalLine plus a newline per trace is Write's output, byte for byte.
func TestMarshalLineMatchesWrite(t *testing.T) {
	d := sampleDataset()
	d.Traces[1].Vantage = `<"odd" & vantage>`
	var want bytes.Buffer
	if err := Write(&want, d); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := range d.Traces {
		line, err := MarshalLine(&d.Traces[i])
		if err != nil {
			t.Fatal(err)
		}
		got = append(append(got, line...), '\n')
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("lines differ from Write:\n%s\nvs\n%s", got, want.Bytes())
	}
}
