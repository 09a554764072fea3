package webserver

import (
	"strings"
	"testing"
	"time"
)

func sampleRecord() Record {
	return Record{
		Time:      time.Date(2024, 11, 3, 15, 4, 5, 0, time.UTC),
		RemoteIP:  "24.0.1.10",
		UserAgent: "Mozilla/5.0; compatible; GPTBot/1.1",
		Path:      "/gallery/art1.png",
		Status:    200,
		Bytes:     520,
	}
}

func TestFormatCLF(t *testing.T) {
	line := FormatCLF(sampleRecord())
	for _, want := range []string{
		"24.0.1.10 - - [03/Nov/2024:15:04:05 +0000]",
		`"GET /gallery/art1.png HTTP/1.1" 200 520`,
		`"Mozilla/5.0; compatible; GPTBot/1.1"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("CLF line missing %q:\n%s", want, line)
		}
	}
}

func TestCLFRoundTrip(t *testing.T) {
	rec := sampleRecord()
	parsed, skipped, err := ParseCLF(strings.NewReader(FormatCLF(rec) + "\n"))
	if err != nil || skipped != 0 {
		t.Fatalf("parse: %v, skipped=%d", err, skipped)
	}
	if len(parsed) != 1 {
		t.Fatalf("records = %d", len(parsed))
	}
	got := parsed[0]
	if got.RemoteIP != rec.RemoteIP || got.Path != rec.Path ||
		got.Status != rec.Status || got.Bytes != rec.Bytes ||
		got.UserAgent != rec.UserAgent {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	if !got.Time.Equal(rec.Time) {
		t.Fatalf("time %v != %v", got.Time, rec.Time)
	}
}

func TestParseCLFSkipsCorruptLines(t *testing.T) {
	input := FormatCLF(sampleRecord()) + "\n" +
		"not a log line\n" +
		"1.2.3.4 - - [bad time] \"GET / HTTP/1.1\" 200 10 \"-\" \"ua\"\n" +
		"1.2.3.4 - - [03/Nov/2024:15:04:05 +0000] \"GET / HTTP/1.1\" xx 10 \"-\" \"ua\"\n"
	parsed, skipped, err := ParseCLF(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || skipped != 3 {
		t.Fatalf("parsed=%d skipped=%d, want 1/3", len(parsed), skipped)
	}
}

func TestWriteCLFFromLiveSite(t *testing.T) {
	// End to end: serve traffic, export CLF, parse it back, and verify
	// the measurement pipeline could classify from the re-parsed log.
	nw := newTestNetwork(t)
	site, err := startSite(t, nw, WildcardDisallowSite("clf.test", "203.0.113.30"))
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	client := nw.HTTPClient("24.0.1.77")
	get(t, client, site.URL()+"/robots.txt", "GPTBot/1.1")
	get(t, client, site.URL()+"/", "Bytespider/2.0")

	var sb strings.Builder
	if err := site.WriteCLF(&sb); err != nil {
		t.Fatal(err)
	}
	records, skipped, err := ParseCLF(strings.NewReader(sb.String()))
	if err != nil || skipped != 0 {
		t.Fatalf("parse: %v skipped=%d\n%s", err, skipped, sb.String())
	}
	if len(records) != 2 {
		t.Fatalf("records = %d", len(records))
	}
	if records[0].Path != "/robots.txt" || !strings.Contains(records[0].UserAgent, "GPTBot") {
		t.Errorf("first record = %+v", records[0])
	}
	if records[1].RemoteIP != "24.0.1.77" {
		t.Errorf("remote IP lost: %+v", records[1])
	}
}
