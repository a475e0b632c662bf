"""Unit tests for RNG streams."""

from repro.sim import RngStreams


class TestRngStreams:
    def test_same_name_same_sequence(self):
        a = RngStreams(7).stream("x")
        b = RngStreams(7).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_differ(self):
        rng = RngStreams(7)
        xs = [rng.stream("x").random() for _ in range(5)]
        ys = [rng.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_creation_order_does_not_matter(self):
        rng1 = RngStreams(7)
        rng1.stream("a")
        first = rng1.stream("b").random()
        rng2 = RngStreams(7)
        second = rng2.stream("b").random()   # no prior stream("a")
        assert first == second

    def test_master_seed_changes_everything(self):
        assert (RngStreams(1).stream("x").random()
                != RngStreams(2).stream("x").random())

    def test_exponential_positive_and_mean_ballpark(self):
        rng = RngStreams(42)
        draws = [rng.exponential("e", 10.0) for _ in range(4000)]
        assert all(d > 0 for d in draws)
        mean = sum(draws) / len(draws)
        assert 9.0 < mean < 11.0

    def test_uniform_in_bounds(self):
        rng = RngStreams(42)
        draws = [rng.uniform("u", 2.0, 5.0) for _ in range(100)]
        assert all(2.0 <= d <= 5.0 for d in draws)

    def test_choice_picks_members(self):
        rng = RngStreams(42)
        options = ["a", "b", "c"]
        assert all(rng.choice("c", options) in options for _ in range(20))
