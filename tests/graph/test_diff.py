"""Unit tests for graph diffing (repro.graph.diff): delta shape
classification, dirty-name seeding for the scoped swap, and the
``diff . apply_to`` round trip."""

from repro.graph.diff import GraphDelta, diff_graphs
from repro.lang.build import parse_graph

BASE = (
    "f :: Idle; c :: Counter; q :: Queue(8); u :: Unqueue; d :: Discard;"
    "f -> c -> q -> u -> d;"
)


def graphs_equal(a, b):
    """Equal up to declaration order: same declarations, same wiring."""
    decls_a = {n: (d.class_name, d.config) for n, d in a.elements.items()}
    decls_b = {n: (d.class_name, d.config) for n, d in b.elements.items()}
    return decls_a == decls_b and set(a.connections) == set(b.connections)


class TestDiff:
    def test_identical_graphs_empty_delta(self):
        delta = diff_graphs(parse_graph(BASE), parse_graph(BASE))
        assert delta.empty
        assert not delta.structural
        assert delta.dirty_names() == set()
        assert delta.summary() == "no changes"

    def test_config_only_change_is_pure_data(self):
        new = parse_graph(BASE.replace("Queue(8)", "Queue(16)"))
        delta = diff_graphs(parse_graph(BASE), new)
        assert not delta.empty
        assert not delta.structural
        [change] = delta.changed
        assert change.name == "q"
        assert change.config_changed and not change.class_changed
        assert delta.dirty_names() == {"q"}

    def test_class_change_is_structural(self):
        new = parse_graph(BASE.replace("c :: Counter", "c :: Paint(1)"))
        delta = diff_graphs(parse_graph(BASE), new)
        assert delta.structural
        [change] = delta.changed
        assert change.class_changed

    def test_added_element_and_wiring(self):
        extended = (
            "f :: Idle; c :: Counter; extra :: Paint(1); q :: Queue(8);"
            "u :: Unqueue; d :: Discard; f -> c -> extra -> q -> u -> d;"
        )
        delta = diff_graphs(parse_graph(BASE), parse_graph(extended))
        assert delta.structural
        assert [name for name, _cls, _cfg in delta.added] == ["extra"]
        # Both endpoints of every rewired edge are dirty.
        assert {"extra", "c", "q"} <= delta.dirty_names()

    def test_removed_element_lists_its_connections(self):
        shrunk = "f :: Idle; q :: Queue(8); u :: Unqueue; d :: Discard; f -> q -> u -> d;"
        delta = diff_graphs(parse_graph(BASE), parse_graph(shrunk))
        assert delta.removed == ["c"]
        # The connections through the removed element are explicit, so
        # the surviving endpoints land in the dirty set.
        assert {"c", "f", "q"} <= delta.dirty_names()

    def test_apply_to_round_trip(self):
        extended = (
            "f :: Idle; c :: Counter; extra :: Paint(1); q :: Queue(4);"
            "u :: Unqueue; d :: Discard; f -> c -> extra -> q -> u -> d;"
        )
        old, new = parse_graph(BASE), parse_graph(extended)
        delta = diff_graphs(old, new)
        rebuilt = delta.apply_to(old)
        assert graphs_equal(rebuilt, new)
        # And the original is untouched (apply_to copies).
        assert "extra" not in old.elements

    def test_as_dict_is_json_shaped(self):
        import json

        new = parse_graph(BASE.replace("Queue(8)", "Queue(16)"))
        delta = diff_graphs(parse_graph(BASE), new)
        payload = delta.as_dict()
        json.dumps(payload)
        assert payload["structural"] is False
        assert payload["changed"][0]["name"] == "q"

    def test_manual_delta_construction(self):
        delta = GraphDelta(removed=["c"])
        assert delta.structural
        assert delta.dirty_names() == {"c"}

    def test_archive_members_ride_with_the_delta(self):
        """Members the new graph adds or rewrites are carried, so that
        ``apply_to`` can build a generated class an added element needs;
        they neither make a delta non-empty nor show in ``as_dict``."""
        old, new = parse_graph(BASE), parse_graph(BASE)
        old.archive["kept.py"] = "A = 1\n"
        new.archive["kept.py"] = "A = 1\n"
        new.archive["gen.py"] = "B = 2\n"
        delta = diff_graphs(old, new)
        assert delta.archive == {"gen.py": "B = 2\n"}
        assert delta.empty and "archive" not in delta.as_dict()
        assert dict(delta.apply_to(old).archive) == dict(new.archive)

    def test_apply_to_keeps_declaration_order(self):
        """An added element lands where the new side declares it, and
        an inverse delta restores a removed one at its old place; a
        delta that carries no position still appends."""
        old = parse_graph(BASE)
        new = parse_graph(
            "head :: Idle; f :: Idle; mid :: Paint(1); q :: Queue(8); tail :: Idle;"
            "mid2 :: Paint(2); u :: Unqueue; d :: Discard; f -> mid -> q -> u -> d;"
        )
        forward = diff_graphs(old, new)
        assert forward.after == {"head": None, "mid": "f", "tail": "q", "mid2": "tail"}
        assert list(forward.apply_to(old).elements) == list(new.elements)
        assert list(diff_graphs(new, old).apply_to(new).elements) == list(old.elements)
        bare = GraphDelta(added=[("z", "Idle", None)])
        assert list(bare.apply_to(old).elements) == list(old.elements) + ["z"]

    def test_apply_to_keeps_order_over_random_edits(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            names = ["e%d" % i for i in range(rng.randint(0, 8))]
            kept = [name for name in names if rng.random() < 0.6]
            fresh = ["n%d" % i for i in range(rng.randint(0, 4))]
            merged = list(kept)
            for name in fresh:
                merged.insert(rng.randint(0, len(merged)), name)
            old = parse_graph("".join("%s :: Idle;" % name for name in names))
            new = parse_graph("".join("%s :: Idle;" % name for name in merged))
            assert list(diff_graphs(old, new).apply_to(old).elements) == merged
            assert list(diff_graphs(new, old).apply_to(new).elements) == names
