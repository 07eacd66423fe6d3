#!/usr/bin/env python3
"""Walkthrough: keyword-matching documents to QA items with a mock judge.

Documents mentioning every (rare) keyword of a question are sent to a
judge that labels each Support / Refute / Related / Unrelated; the
per-subject aggregate makes a table of mean verdict counts.  A real
HTTP judge endpoint plugs in via JudgeClient; here a deterministic
mock keeps the demo offline, and one document injects a fault to show
per-document isolation.
"""

from poollab import (
    Document,
    Pool,
    QAItem,
    Verdict,
    aggregate_judgements,
    judge_documents,
    keyword_match,
    mock_judge_client,
)

DOCS = [
    ("cc-001", "The pulsar PSR B1919+21 is a rotating neutron star emitting beams."),
    ("cc-002", "A pulsar spins rapidly; this neutron star remnant flashes like a lighthouse."),
    ("cc-003", "Some claim a pulsar is actually a white dwarf, not a neutron star."),
    ("cc-004", "pulsars everywhere in this catalogue but never the singular keyword"),
    ("cc-005", "Gardening tips for the winter months and frost-resistant plants."),
    ("cc-006", "The pulsar timing array fails-on-purpose to show fault isolation."),
    ("cc-007", "A neutron star forms after a supernova; if it beams, we see a pulsar."),
]

QA_ITEMS = [
    QAItem(
        subject="astronomy",
        question="What is a pulsar?",
        answer="a rotating neutron star",
        keywords=("pulsar",),
    ),
    QAItem(
        subject="astronomy",
        question="What remains after a core-collapse supernova?",
        answer="a neutron star",
        keywords=("supernova",),
    ),
]


def scripted_judge(doc_text, question, answer):
    text = doc_text.lower()
    if "fails-on-purpose" in text:
        raise ConnectionError("injected transport failure")
    if "not a neutron star" in text or "actually a white dwarf" in text:
        return Verdict.REFUTE
    if all(word in text for word in ("rotating", "neutron", "star")) or "supernova" in text:
        return Verdict.SUPPORT
    if "pulsar" in text:
        return Verdict.RELATED
    return Verdict.UNRELATED


def main():
    pool = Pool(documents=[Document(i, t) for i, t in DOCS])
    client = mock_judge_client(scripted_judge)

    all_judgements = []
    for qa in QA_ITEMS:
        matched = keyword_match(pool, qa)
        print(f"{qa.subject}: {qa.question!r}")
        print(f"  keywords {qa.keywords} match {len(matched)} of {len(pool)} docs: "
              f"{[d.id for d in matched]}")
        run = judge_documents(matched, qa, client)
        for j in run.judgements:
            print(f"    {j.doc_id}: {j.verdict.value}")
        for f in run.failures:
            print(f"    {f.doc_id}: FAILED after retries ({f.error.split(':')[0]})")
        all_judgements.extend(run.judgements)
        print()

    print("aggregate (mean verdict counts per QA item of each subject):")
    rows = aggregate_judgements(all_judgements, QA_ITEMS)
    header = list(rows[0].keys())
    print("  " + "  ".join(f"{h:>10}" for h in header))
    for row in rows:
        print("  " + "  ".join(f"{row[h]:>10}" if h == "subject" else f"{row[h]:>10.2f}"
                               for h in header))
    print("\nnote doc cc-004 ('pulsars') never matched the whole-word keyword 'pulsar',")
    print("and the injected fault on cc-006 cost only that one document.")


if __name__ == "__main__":
    main()
