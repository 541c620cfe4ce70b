package repair

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadJournal feeds arbitrary bytes to ReadJournal: it must not panic,
// and every journal it parses must re-marshal (one JSON event per line, as
// WriteJournal writes it) and re-read as the same events.
func FuzzReadJournal(f *testing.F) {
	l := NewLedger()
	l.SetNow(fakeClock())
	open := l.SyncRound(1, []Proposal{prop(1, 250, 220, 3), prop(2, 10, 15, 1)})
	acc, err := l.Accept(open[0].ID, "alice", open[0].Seq)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Reject(open[1].ID, 12.5, "bob", open[1].Seq); err != nil {
		f.Fatal(err)
	}
	if _, err := l.Revert(acc.ID, "carol", acc.Seq); err != nil {
		f.Fatal(err)
	}
	var journal bytes.Buffer
	if err := l.WriteJournal(&journal); err != nil {
		f.Fatal(err)
	}
	f.Add(journal.Bytes())
	f.Add([]byte("\n  \n{\"seq\":1,\"kind\":\"proposed\"}\r\nnull\n"))
	f.Add([]byte(`{"seq":-1}`))
	f.Add([]byte(`{"suggestion":{"evidence":[],"old":-0,"relation":" \ud800"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, ev := range events {
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("parsed event %+v does not marshal: %v", ev, err)
			}
			buf.Write(append(line, '\n'))
		}
		again, err := ReadJournal(&buf)
		if err != nil {
			t.Fatalf("re-marshaled journal does not parse: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(normalizeEvidence(again), normalizeEvidence(events)) {
			t.Fatalf("journal changed across a round trip:\n got  %+v\n want %+v", again, events)
		}
	})
}

// normalizeEvidence maps an empty evidence list to nil: "evidence": []
// parses to an empty slice, which omitempty then drops from the output.
func normalizeEvidence(events []Event) []Event {
	for i := range events {
		if len(events[i].Suggestion.Evidence) == 0 {
			events[i].Suggestion.Evidence = nil
		}
	}
	return events
}
