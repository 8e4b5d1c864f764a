package appir_test

import (
	"testing"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/netpkt"
)

// BenchmarkConcreteInterpreter runs l2_learning's handler on a packet
// to a learned destination: the per-packet_in cost of the IR.
func BenchmarkConcreteInterpreter(b *testing.B) {
	prog, st := apps.L2Learning()
	st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(2)), appir.U16Value(2))
	pkt := netpkt.Packet{
		EthSrc:  netpkt.MACFromUint64(1),
		EthDst:  netpkt.MACFromUint64(2),
		EthType: netpkt.EtherTypeIPv4,
		NwProto: netpkt.ProtoUDP,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appir.Exec(prog, st, &pkt, 1); err != nil {
			b.Fatal(err)
		}
	}
}
