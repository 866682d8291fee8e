"""Corpus filtering tests: TSV round trips with format diagnostics,
margin scoring with hand-checkable encoders, language-hook and empty-side
handling, and budgeted selection with the prefix-nesting property."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitextkit import filtering
from bitextkit.encoder import EncoderParams, FeaturizerConfig, encode_batch, make_teacher
from bitextkit.errors import CorpusFormatError, DimMismatchError, FormatError
from bitextkit.filtering import (
    ScoredPair,
    count_tokens,
    read_pairs_tsv,
    score_corpus,
    select_by_token_budget,
    write_pairs_tsv,
    write_scored_tsv,
)
from bitextkit.hashing import bucket_ids
from bitextkit.margin import MARGIN_KINDS, SearchConfig, align, knn, neighborhood_means
from bitextkit.synth import CipherSpec, gen_cipher_corpus
from bitextkit.trainer import default_student
from conftest import search_peak_bound, traced_peak


# --- tokens -------------------------------------------------------------------


def test_count_tokens():
    assert count_tokens("") == 0
    assert count_tokens("hello") == 1
    assert count_tokens("a b  c ") == 3


# --- TSV reading --------------------------------------------------------------


def test_read_pairs_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "# header comment\n"
        "\n"
        "src one\ttgt one\n"
        "   \n"
        "# another note\n"
        "src two\ttgt two\r\n"
        "src three\ttgt three\rsrc four\ttgt four\n"
    )
    # universal newlines: "\r\n" and a lone "\r" both end a line
    assert read_pairs_tsv(path) == [
        ("src one", "tgt one"),
        ("src two", "tgt two"),
        ("src three", "tgt three"),
        ("src four", "tgt four"),
    ]


def test_read_pairs_comment_with_tab_is_data():
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.tsv")
        with open(path, "w") as fh:
            fh.write("#tag\tvalue\n")
        assert read_pairs_tsv(path) == [("#tag", "value")]


def test_read_pairs_reports_one_based_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("good\tpair\nno tab here\na\tb\tc\n")
    with pytest.raises(CorpusFormatError) as exc:
        read_pairs_tsv(path)
    assert exc.value.lines == [2, 3]
    assert "lines 2, 3" in str(exc.value)


def test_read_pairs_skips_a_byte_order_mark(tmp_path):
    # the mark is not part of the first sentence, and no line number moves
    path = tmp_path / "corpus.tsv"
    path.write_text("\ufeffabc\tdef\n", encoding="utf-8")
    assert read_pairs_tsv(path) == [("abc", "def")]
    path.write_text("\ufeff# a comment\nabc\tdef\nno tab\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        read_pairs_tsv(path)
    assert exc.value.lines == [3]
    path.write_bytes("\ufeffabc\tdef\n".encode() + b"bad \xff\tbyte\n")
    with pytest.raises(FormatError, match=":2: invalid UTF-8"):
        read_pairs_tsv(path)


def test_read_pairs_truncates_long_error_lists(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("\n".join(["no tab"] * 12) + "\n")
    with pytest.raises(CorpusFormatError) as exc:
        read_pairs_tsv(path)
    assert exc.value.lines == list(range(1, 13))
    assert str(exc.value).endswith("(lines 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...)")


# --- TSV writing --------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    pairs = [("a b", "n o"), ("cc", "pp qq"), ("#looks like comment", "t")]
    path = tmp_path / "out.tsv"
    write_pairs_tsv(path, pairs, comments=["generated for a test"])
    assert path.read_text().startswith("# generated for a test\n")
    assert read_pairs_tsv(path) == pairs


@pytest.mark.parametrize("line", ["\t", " \t", "\t ", "\x0b\t\x1c", "#\t"])
def test_read_pairs_a_line_with_a_tab_is_a_pair(tmp_path, line):
    path = tmp_path / "corpus.tsv"
    path.write_text(f"{line}\n", encoding="utf-8")
    assert read_pairs_tsv(path) == [tuple(line.split("\t"))]


# any Unicode the writer accepts in a sentence: no tab, LF or CR (and no
# surrogates, which UTF-8 cannot encode)
_SENTENCE = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), max_size=12
)
# any comment text at all, tab, LF and CR included (surrogates aside)
_COMMENT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(_SENTENCE, _SENTENCE), max_size=6),
    comments=st.lists(_COMMENT, max_size=2),
)
@example(pairs=[("a", "b")], comments=["x\ty"])
@example(pairs=[("a", "b")], comments=["x\ry"])
def test_write_read_round_trips_any_unicode(tmp_path_factory, pairs, comments):
    # the writer either refuses the comments and leaves no file, or what it
    # wrote reads back as exactly the pairs
    path = tmp_path_factory.mktemp("tsv") / "corpus.tsv"
    try:
        write_pairs_tsv(path, pairs, comments=comments)
    except ValueError:
        assert any(ch in c for c in comments for ch in "\t\n\r")
        assert not path.exists() and not list(path.parent.iterdir())
        return
    assert read_pairs_tsv(path) == pairs


@settings(max_examples=50, deadline=None)
@given(first=_SENTENCE, pairs=st.lists(st.tuples(_SENTENCE, _SENTENCE), max_size=4))
@example(first="", pairs=[])
def test_a_leading_byte_order_mark_of_the_first_sentence_round_trips(tmp_path_factory, first, pairs):
    # with no comment line, the file starts with the first sentence, and a
    # U+FEFF that begins it is the sentence's own, not a byte-order mark
    path = tmp_path_factory.mktemp("tsv") / "corpus.tsv"
    pairs = [("\ufeff" + first, "t"), *pairs]
    write_pairs_tsv(path, pairs)
    assert read_pairs_tsv(path) == pairs
    assert path.read_bytes().startswith(b"\xef\xbb\xbf" * 2)


def test_only_a_leading_byte_order_mark_gains_another(tmp_path):
    # a U+FEFF anywhere else, or behind a comment line, is written as it is
    plain = [("a\ufeff", "\ufeffb"), ("\ufeffc", "d")]
    write_pairs_tsv(tmp_path / "plain.tsv", plain)
    assert (tmp_path / "plain.tsv").read_bytes() == "a\ufeff\t\ufeffb\n\ufeffc\td\n".encode()
    write_pairs_tsv(tmp_path / "noted.tsv", [("\ufeffa", "b")], comments=["seed=1"])
    assert (tmp_path / "noted.tsv").read_bytes() == "# seed=1\n\ufeffa\tb\n".encode()
    assert read_pairs_tsv(tmp_path / "noted.tsv") == [("\ufeffa", "b")]


@pytest.mark.parametrize("comment", ["a\tb", "a\nb", "a\rb", "\t"])
def test_write_pairs_refuses_a_comment_that_would_read_as_data(tmp_path, comment):
    path = tmp_path / "out.tsv"
    with pytest.raises(ValueError, match="^comment: must not contain a tab or line break$"):
        write_pairs_tsv(path, [("a", "n")], comments=["fine", comment])
    assert list(tmp_path.iterdir()) == []


def test_write_scored_refuses_a_comment_that_would_read_as_data(tmp_path):
    path = tmp_path / "scored.tsv"
    with pytest.raises(ValueError, match="^comment: must not contain a tab or line break$"):
        write_scored_tsv(path, [ScoredPair("s", "t", 0.5, 1)], comments=["seed=1\t"])
    assert list(tmp_path.iterdir()) == []


def test_write_pairs_streams_its_lines(tmp_path):
    # the writer holds a chunk of lines at a time, never the whole text, so
    # its traced peak does not grow with the corpus
    spec = CipherSpec(vocab_size=30, min_len=1, max_len=12, map_seed=7)
    pairs = gen_cipher_corpus(spec, 20000, seed=3)
    few = pairs[:5000]
    _, small = traced_peak(lambda: write_pairs_tsv(tmp_path / "small.tsv", few))
    _, large = traced_peak(lambda: write_pairs_tsv(tmp_path / "large.tsv", pairs))
    assert large < 1.5 * small, (small, large)


def test_a_refused_sentence_leaves_the_previous_file(tmp_path):
    # lines stream into a temp file; a bad sentence late in the corpus
    # removes it and keeps what the path held
    path = tmp_path / "out.tsv"
    write_pairs_tsv(path, [("a", "n")])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="^field: must not contain a tab or line break$"):
        write_pairs_tsv(path, [("a", "n")] * 1000 + [("b", "o\rp")])
    assert path.read_bytes() == before and list(tmp_path.iterdir()) == [path]


def test_write_rejects_tabs_and_newlines(tmp_path):
    path = tmp_path / "out.tsv"
    with pytest.raises(ValueError):
        write_pairs_tsv(path, [("a\tb", "t")])
    with pytest.raises(ValueError):
        write_pairs_tsv(path, [("a", "t\nu")])
    assert not path.exists()  # nothing partial left behind


def test_write_scored_sorts_descending_with_stable_ties(tmp_path):
    scored = [
        ScoredPair("s1", "t1", 0.5, 1),
        ScoredPair("s2", "t2", 0.75, 1),
        ScoredPair("s3", "t3", 0.5, 1),
        ScoredPair("s4", "t4", -math.inf, 1),
    ]
    path = tmp_path / "scored.tsv"
    write_scored_tsv(path, scored, comments=["note"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# note"
    assert lines[1] == "0.750000\ts2\tt2"
    assert lines[2] == "0.500000\ts1\tt1"  # tie: input order preserved
    assert lines[3] == "0.500000\ts3\tt3"
    assert lines[4] == "-inf\ts4\tt4"



def test_write_scored_refuses_nan_before_writing(tmp_path):
    # NaN fails every compare, so it would land out of the descending order
    scored = [ScoredPair("s1", "t1", 1.0, 1), ScoredPair("s2", "t2", math.nan, 1),
              ScoredPair("s3", "t3", 2.0, 1)]
    path = tmp_path / "scored.tsv"
    with pytest.raises(ValueError, match="^scores must not be NaN$"):
        write_scored_tsv(path, scored)
    assert not path.exists()

# --- scoring with hand-built encoders -----------------------------------------


def axis_encoders():
    """Unigram encoders whose embeddings are exactly known.

    The student maps "a" -> (1, 0) and "b" -> (0, 1); the teacher maps
    "n" -> (0.8, 0.6) and "o" -> (0.6, 0.8).  Sentinel buckets carry zero
    weight so they contribute nothing.
    """
    cfg = FeaturizerConfig(ngram_orders=(1,), bucket_count=64, hash_seed=0)

    def bucket(ch):
        return int(bucket_ids([ch], (1,), 64, 0)[0][0])

    ids = {ch: bucket(ch) for ch in "^$abno"}
    assert len(set(ids.values())) == 6  # no collisions among the six glyphs

    student_w = np.zeros((64, 2))
    student_w[ids["a"]] = [1.0, 0.0]
    student_w[ids["b"]] = [0.0, 1.0]
    teacher_w = np.zeros((64, 2))
    teacher_w[ids["n"]] = [0.8, 0.6]
    teacher_w[ids["o"]] = [0.6, 0.8]
    return EncoderParams(cfg, student_w), EncoderParams(cfg, teacher_w, frozen=True)


def test_score_corpus_aligned_pairs_score_one():
    student, teacher = axis_encoders()
    cfg = SearchConfig(k=1, margin_kind="ratio")
    scored = score_corpus([("a", "n"), ("b", "o")], student, teacher, cfg)
    assert [p.source for p in scored] == ["a", "b"]
    assert scored[0].score == pytest.approx(1.0, abs=1e-12)
    assert scored[1].score == pytest.approx(1.0, abs=1e-12)
    assert [p.target_tokens for p in scored] == [1, 1]


def test_score_corpus_crossed_pairs_score_three_quarters():
    # pairing "a" with "o" leaves cos 0.6 against neighbourhood terms of
    # 0.4 + 0.4, so the ratio margin is 0.6 / 0.8 = 0.75 for both pairs
    student, teacher = axis_encoders()
    cfg = SearchConfig(k=1, margin_kind="ratio")
    scored = score_corpus([("a", "o"), ("b", "n")], student, teacher, cfg)
    assert scored[0].score == pytest.approx(0.75, abs=1e-12)
    assert scored[1].score == pytest.approx(0.75, abs=1e-12)


def test_score_corpus_empty_side_isolated_from_neighborhoods():
    student, teacher = axis_encoders()
    cfg = SearchConfig(k=1, margin_kind="ratio")
    with_empty = score_corpus(
        [("a", "n"), ("", "n"), ("b", "o"), ("a", "")], student, teacher, cfg
    )
    assert with_empty[1].score == -math.inf
    assert with_empty[3].score == -math.inf
    clean = score_corpus([("a", "n"), ("b", "o")], student, teacher, cfg)
    assert with_empty[0].score == pytest.approx(clean[0].score, abs=1e-12)
    assert with_empty[2].score == pytest.approx(clean[1].score, abs=1e-12)


def test_score_corpus_across_blocks_matches_knn_margins():
    # 1,025 whole pairs: the last 512-row block holds one row, fewer than k;
    # the empty-sided pairs stay out of every neighbourhood
    featurizer = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=256, hash_seed=3)
    student = make_teacher(featurizer, 16, weight_seed=1)
    teacher = make_teacher(featurizer, 16, weight_seed=2)
    spec = CipherSpec(vocab_size=60, max_len=6, map_seed=4)
    whole = gen_cipher_corpus(spec, 1025, seed=5)
    pairs = whole[:500] + [("", "x"), ("y", "")] + whole[500:]
    cfg = SearchConfig(k=4, margin_kind="ratio")
    scores = [p.score for p in score_corpus(pairs, student, teacher, cfg)]
    assert scores[500] == scores[501] == -math.inf
    S = encode_batch(student, [s for s, _ in whole])
    T = encode_batch(teacher, [t for _, t in whole])
    dx = neighborhood_means(knn(S, T, 4)[1], 4)
    dy = neighborhood_means(knn(T, S, 4)[1], 4)
    want = np.clip(np.einsum("nd,nd->n", S, T), -1.0, 1.0) / (dx + dy)
    got = np.array(scores[:500] + scores[502:])
    assert np.allclose(got, want, atol=1e-12, rtol=0.0)



def test_score_corpus_traced_peak_holds_no_spare_embeddings():
    # 3,000 long pairs at d = 64: scoring holds no more than the search of
    # its valid rows, whose unit rows it makes once and hands over, with
    # neither the full encodings nor the valid rows they were taken from
    featurizer = FeaturizerConfig(ngram_orders=(2, 3), bucket_count=2048, hash_seed=101)
    teacher = make_teacher(featurizer, 64, weight_seed=101)
    student = default_student(teacher, 202)
    pairs = gen_cipher_corpus(CipherSpec(vocab_size=100, min_len=20, max_len=60, map_seed=7), 3000, 11)
    cfg = SearchConfig(k=4, margin_kind="ratio")
    score_corpus(pairs[:8], student, teacher, cfg)  # the hash tables are cached, not traced
    _, peak = traced_peak(lambda: score_corpus(pairs, student, teacher, cfg))
    n, d = len(pairs), teacher.dim
    assert peak <= search_peak_bound(n, n, d), f"peak {peak / 2**20:.2f} MiB"


def test_score_corpus_refuses_encoders_of_different_dims_before_encoding(monkeypatch):
    def encoded(*args):
        raise AssertionError("a side was encoded")

    monkeypatch.setattr(filtering, "encode_masked", encoded)
    featurizer = FeaturizerConfig(ngram_orders=(2,), bucket_count=16, hash_seed=1)
    student = make_teacher(featurizer, 8, weight_seed=1)
    teacher = make_teacher(replace(featurizer, hash_seed=2), 16, weight_seed=2)
    with pytest.raises(DimMismatchError, match="^dim mismatch: 8 vs 16$"):
        score_corpus([("ab", "cd")], student, teacher, SearchConfig(k=1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(1, 4), kind=st.sampled_from(MARGIN_KINDS))
def test_score_corpus_scores_each_pair_with_align_bits(seed, k, kind):
    # filter and mine score a pair with the same cosine, neighbourhood
    # terms and margin, bit for bit: every source that align pairs with its
    # own target gets score_corpus's score for that pair, and each pair
    # aligned on its own gets its cosine.  The student is the teacher plus
    # noise and both sides are the same text, so most sources pick their own
    featurizer = FeaturizerConfig(ngram_orders=(1, 2), bucket_count=64, hash_seed=seed)
    teacher = make_teacher(featurizer, 8, weight_seed=seed)
    noise = np.random.default_rng(seed).normal(scale=0.05, size=teacher.weights.shape)
    student = EncoderParams(featurizer, teacher.weights + noise)
    texts = [t for _, t in gen_cipher_corpus(CipherSpec(vocab_size=20, max_len=5), 60, seed)]
    pairs = list(zip(texts, texts))
    cfg = SearchConfig(k=k, margin_kind=kind)
    scores = np.array([p.score for p in score_corpus(pairs, student, teacher, cfg)])
    S, T = encode_batch(student, texts), encode_batch(teacher, texts)
    picks, best = align(S, T, cfg)
    own = picks == np.arange(len(pairs))
    assert own.mean() > 0.5
    assert np.array_equal(best[own], scores[own])
    alone = SearchConfig(k=1, margin_kind="absolute")
    cosines = score_corpus(pairs, student, teacher, alone)
    for i in range(0, len(pairs), 7):
        assert align(S[i : i + 1], T[i : i + 1], alone)[1][0] == cosines[i].score


def test_score_corpus_counts_target_tokens():
    student, teacher = axis_encoders()
    cfg = SearchConfig(k=1, margin_kind="absolute")
    scored = score_corpus([("a b a", "n o"), ("b", "o n o")], student, teacher, cfg)
    assert [p.target_tokens for p in scored] == [2, 3]


# --- budgeted selection -------------------------------------------------------


def sp(score, n_tokens, tag=""):
    return ScoredPair(f"s{tag}", " ".join(["t"] * n_tokens), score, n_tokens)


def test_budget_selection_stops_at_first_overflow():
    scored = [sp(0.9, 3, "a"), sp(0.8, 4, "b"), sp(0.7, 2, "c")]
    picked = select_by_token_budget(scored, 7)
    assert [p.score for p in picked] == [0.9, 0.8]
    # the third pair would fit a residual budget but selection has stopped
    assert select_by_token_budget(scored, 8) == picked


def test_budget_zero_and_generous_budget():
    scored = [sp(0.9, 3), sp(0.8, 4)]
    assert select_by_token_budget(scored, 0) == []
    assert [p.score for p in select_by_token_budget(scored, 100)] == [0.9, 0.8]
    assert select_by_token_budget(scored, math.inf) == select_by_token_budget(scored, 100)


def test_budget_selection_orders_by_score_not_input():
    scored = [sp(0.1, 1, "low"), sp(0.9, 1, "high")]
    picked = select_by_token_budget(scored, 1)
    assert picked == [scored[1]]


def test_budget_never_selects_minus_inf():
    scored = [sp(0.5, 2), sp(-math.inf, 1)]
    picked = select_by_token_budget(scored, 1000)
    assert [p.score for p in picked] == [0.5]


def test_budget_validation():
    with pytest.raises(ValueError):
        select_by_token_budget([sp(0.5, 1)], -1)
    # NaN fails every compare, so unchecked it would select everything
    with pytest.raises(ValueError, match="^budget: must be >= 0, got nan$"):
        select_by_token_budget([sp(0.5, 1), sp(0.4, 1)], math.nan)
    with pytest.raises(ValueError):
        select_by_token_budget([sp(math.nan, 1)], 5)


def test_budget_adherence_and_prefix_nesting():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        scored = [
            sp(float(rng.normal()), int(rng.integers(1, 9)), str(i))
            for i, _ in enumerate(range(n))
        ]
        b1, b2 = sorted(rng.integers(0, 60, size=2))
        small = select_by_token_budget(scored, int(b1))
        large = select_by_token_budget(scored, int(b2))
        assert sum(p.target_tokens for p in small) <= b1
        assert sum(p.target_tokens for p in large) <= b2
        assert small == large[: len(small)]  # nested budgets nest selections


def oracle_ranked(scored):
    """The sorted() order the ranking must give: descending, stable."""
    return sorted(scored, key=lambda p: -p.score)


def oracle_select(scored, budget):
    """Greedy selection as a plain loop over oracle_ranked."""
    out, total = [], 0
    for p in oracle_ranked(scored):
        if p.score == -math.inf:
            break
        if total + p.target_tokens > budget:
            break
        out.append(p)
        total += p.target_tokens
    return out


SCORES = st.one_of(
    st.sampled_from([0.5, 0.25, 0.0, -0.0, math.inf, -math.inf, -1.5]),  # ties, +-0.0, infinities
    st.floats(allow_nan=False),
)
TOKENS = st.one_of(st.integers(0, 12), st.just(0), st.integers(0, 2**72))


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.tuples(SCORES, TOKENS), max_size=40),
    tail=st.lists(TOKENS, max_size=5),  # -inf-scored, as pairs with an empty side
    budget=st.one_of(
        st.just(0),
        st.integers(0, 80),
        st.floats(0, 80),
        st.just(math.inf),
        st.just(2**70),
    ),
    nan_at=st.none() | st.integers(0, 45),
)
def test_ranking_and_selection_equal_the_sorted_loops(
    tmp_path_factory, entries, tail, budget, nan_at
):
    scored = [
        ScoredPair(f"s{i}", f"t{i}", score, tokens)
        for i, (score, tokens) in enumerate(entries + [(-math.inf, t) for t in tail])
    ]
    path = tmp_path_factory.mktemp("ranked") / "scored.tsv"
    if nan_at is not None:
        scored.insert(min(nan_at, len(scored)), ScoredPair("nan", "nan", math.nan, 1))
        with pytest.raises(ValueError, match="^scores must not be NaN$"):
            write_scored_tsv(path, scored)
        assert not path.exists()
        with pytest.raises(ValueError, match="^scores must not be NaN$"):
            select_by_token_budget(scored, budget)
        return
    picked, want = select_by_token_budget(scored, budget), oracle_select(scored, budget)
    assert len(picked) == len(want) and all(p is w for p, w in zip(picked, want))
    write_scored_tsv(path, scored, comments=["c"])
    lines = "".join(f"{p.score:.6f}\t{p.source}\t{p.target}\n" for p in oracle_ranked(scored))
    assert path.read_bytes() == ("# c\n" + lines).encode()
