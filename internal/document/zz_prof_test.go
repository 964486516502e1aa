package document

import (
	"fmt"
	"testing"

	"repro/internal/xmltree"
)

func BenchmarkZZWritePair(b *testing.B) {
	d, err := FromTree(xmltree.XMark(500, 1), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fmt.Sprintf("/site/open_auctions/open_auction[%d]", 1+(i*7919)%3000)
		sub, _ := xmltree.ParseFragment("<bidder><increase>1</increase></bidder>")
		if _, err := d.Insert(p, 0, sub); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Delete(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}
