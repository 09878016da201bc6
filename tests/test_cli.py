"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main

TURTLE = """
@prefix ex: <http://example.org/> .
ex:Cat rdfs:subClassOf ex:Mammal .
ex:hasFriend rdfs:domain ex:Person .
ex:Tom a ex:Cat .
ex:Anne ex:hasFriend ex:Marie .
"""

MAMMALS = "SELECT ?x WHERE { ?x a <http://example.org/Mammal> }"


@pytest.fixture
def turtle_file(tmp_path):
    path = tmp_path / "data.ttl"
    path.write_text(TURTLE)
    return str(path)


@pytest.fixture
def ntriples_file(tmp_path):
    path = tmp_path / "data.nt"
    path.write_text(
        "<http://example.org/Tom> "
        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://example.org/Cat> .\n")
    return str(path)


class TestInfo:
    def test_reports_sizes(self, turtle_file, capsys):
        assert main(["info", turtle_file]) == 0
        out = capsys.readouterr().out
        assert "triples: 4" in out
        assert "2 schema" in out

    def test_ntriples_input(self, ntriples_file, capsys):
        assert main(["info", ntriples_file]) == 0
        assert "triples: 1" in capsys.readouterr().out

    def test_unknown_extension_fails(self, tmp_path):
        path = tmp_path / "data.xyz"
        path.write_text("")
        with pytest.raises(SystemExit):
            main(["info", str(path)])


class TestSaturate:
    def test_prints_summary(self, turtle_file, capsys):
        assert main(["saturate", turtle_file]) == 0
        out = capsys.readouterr().out
        assert "saturation" in out
        assert "derivations" in out

    def test_writes_output(self, turtle_file, tmp_path, capsys):
        out_path = tmp_path / "out.nt"
        assert main(["saturate", turtle_file, "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "Mammal" in text
        assert "Person" in text  # Anne rdf:type Person materialized

    def test_ruleset_option(self, turtle_file, capsys):
        assert main(["saturate", turtle_file, "--ruleset", "rdfs-full"]) == 0
        assert "seminaive" in capsys.readouterr().out


class TestQuery:
    @pytest.mark.parametrize("strategy",
                             ["none", "saturation", "reformulation",
                              "backward"])
    def test_strategies(self, turtle_file, capsys, strategy):
        assert main(["query", turtle_file, "-q", MAMMALS,
                     "--strategy", strategy]) == 0
        out = capsys.readouterr().out
        if strategy == "none":
            assert "(0 row(s)" in out
        else:
            assert "Tom" in out
            assert "(1 row(s)" in out

    def test_prefixed_query(self, turtle_file, capsys):
        assert main(["query", turtle_file, "-q",
                     "PREFIX ex: <http://example.org/> "
                     "SELECT ?x WHERE { ?x a ex:Person }"]) == 0
        assert "Anne" in capsys.readouterr().out


class TestAsk:
    def test_yes(self, turtle_file, capsys):
        code = main(["ask", turtle_file, "-q",
                     "ASK { <http://example.org/Tom> a "
                     "<http://example.org/Mammal> }"])
        assert code == 0
        assert "yes" in capsys.readouterr().out

    def test_no_exit_code(self, turtle_file, capsys):
        code = main(["ask", turtle_file, "-q",
                     "ASK { <http://example.org/Tom> a "
                     "<http://example.org/Person> }"])
        assert code == 1
        assert "no" in capsys.readouterr().out


class TestReformulate:
    def test_prints_union(self, turtle_file, capsys):
        assert main(["reformulate", turtle_file, "-q", MAMMALS]) == 0
        out = capsys.readouterr().out
        assert "UCQ size 2" in out
        assert "Cat" in out

    def test_minimize_flag(self, turtle_file, capsys):
        assert main(["reformulate", turtle_file, "-q", MAMMALS,
                     "--minimize"]) == 0
        assert "after minimization" in capsys.readouterr().out


class TestExplain:
    def test_proof_tree(self, turtle_file, capsys):
        code = main([
            "explain", turtle_file,
            "-s", "http://example.org/Tom",
            "-p", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "-o", "http://example.org/Mammal",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[rdfs9]" in out
        assert "[explicit]" in out

    def test_not_entailed(self, turtle_file, capsys):
        code = main([
            "explain", turtle_file,
            "-s", "http://example.org/Tom",
            "-p", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "-o", "http://example.org/Person",
        ])
        assert code == 1
        assert "not entailed" in capsys.readouterr().out


class TestGenerateAndThresholds:
    def test_generate_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "uni.ttl"
        assert main(["generate", "--departments", "1",
                     "-o", str(out_path)]) == 0
        assert "written" in capsys.readouterr().out
        assert out_path.exists()
        # generated file round-trips through the info command
        assert main(["info", str(out_path)]) == 0

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--departments", "1"]) == 0
        assert "@prefix" in capsys.readouterr().out

    def test_thresholds_custom_queries(self, turtle_file, capsys):
        assert main(["thresholds", turtle_file, "--repeat", "1",
                     "--update-size", "1", "-q", MAMMALS]) == 0
        out = capsys.readouterr().out
        assert "q1" in out
        assert "spread" in out

    def test_thresholds_csv(self, turtle_file, capsys):
        assert main(["thresholds", turtle_file, "--repeat", "1",
                     "--update-size", "1", "-q", MAMMALS, "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("query,")
        assert "threshold_saturation" in out


class TestStats:
    def test_text_report_has_rule_counts_and_spans(self, turtle_file,
                                                   capsys):
        assert main(["stats", turtle_file]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "saturation.rule_fired{rule=rdfs9}" in out
        assert "spans:" in out
        assert "saturate:" in out

    def test_json_report(self, turtle_file, capsys):
        import json

        assert main(["stats", turtle_file, "--json", "-q", MAMMALS]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-obs-report/1"
        assert report["context"]["queries"] == 1
        counters = report["metrics"]["counters"]
        assert counters["saturation.rule_fired"]["rule=rdfs9"] >= 1
        assert counters["db.queries"]["strategy=saturation"] == 1
        assert any(node["name"] == "saturate" for node in report["spans"])

    def test_report_file_output(self, turtle_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "report.json"
        assert main(["stats", turtle_file, "-o", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro-obs-report/1"

    def test_query_accounting(self, turtle_file, capsys):
        assert main(["stats", turtle_file, "--strategy", "reformulation",
                     "-q", MAMMALS]) == 0
        out = capsys.readouterr().out
        assert "reformulation.calls" in out
        assert "evaluator.index_lookups" in out


class TestTrace:
    def test_trace_flag_prints_span_tree(self, turtle_file, capsys):
        assert main(["--trace", "saturate", turtle_file]) == 0
        captured = capsys.readouterr()
        assert "derivations" in captured.out  # command output intact
        assert "--- trace ---" in captured.err
        assert "saturate:" in captured.err
        assert "saturation.rule_fired" in captured.err

    def test_trace_is_isolated_per_run(self, turtle_file, capsys):
        main(["--trace", "saturate", turtle_file])
        first = capsys.readouterr().err
        main(["--trace", "saturate", turtle_file])
        second = capsys.readouterr().err
        # counters must not accumulate across traced runs
        assert first.count("saturation.runs") == \
            second.count("saturation.runs")


SOCIAL_TURTLE = """
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b .
ex:b ex:knows ex:c .
ex:c ex:knows ex:d .
ex:d ex:knows ex:a .
ex:a ex:knows ex:c .
ex:b ex:knows ex:d .
"""

CHAIN_SPARQL = ("SELECT DISTINCT ?x ?z WHERE { "
                "?x <http://example.org/knows> ?y . "
                "?y <http://example.org/knows> ?z }")


@pytest.fixture
def social_file(tmp_path):
    path = tmp_path / "social.ttl"
    path.write_text(SOCIAL_TURTLE)
    return str(path)


class TestViews:
    def test_mine_reports_candidates(self, social_file, capsys):
        assert main(["views", "mine", social_file,
                     "-q", CHAIN_SPARQL, "-q", CHAIN_SPARQL]) == 0
        out = capsys.readouterr().out
        assert "workload queries: 2" in out
        assert "selected: 1" in out
        assert "knows" in out

    def test_mine_rejects_non_bgp_queries(self, social_file):
        union = ("SELECT ?x WHERE { { ?x <http://example.org/knows> ?y } "
                 "UNION { ?y <http://example.org/knows> ?x } }")
        with pytest.raises(SystemExit):
            main(["views", "mine", social_file, "-q", union])

    def test_apply_commits_to_store_and_list_reads_it(
            self, social_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["views", "apply", social_file, "-q", CHAIN_SPARQL,
                     "--storage-dir", store]) == 0
        out = capsys.readouterr().out
        assert "installed: v0" in out
        assert "committed to the store's manifest" in out
        assert main(["views", "list", "--storage-dir", store]) == 0
        out = capsys.readouterr().out
        assert "views: 1 installed" in out
        assert "v0:" in out

    def test_apply_with_nothing_selected_fails(self, social_file, capsys):
        ghost = ("SELECT DISTINCT ?x WHERE { "
                 "?x <http://example.org/ghost> ?y . "
                 "?y <http://example.org/ghost> ?x }")
        assert main(["views", "apply", social_file, "-q", ghost]) == 1
        assert "nothing to install" in capsys.readouterr().out

    def test_list_requires_a_committed_store(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["views", "list", "--storage-dir", str(tmp_path / "nope")])


class TestServeParsing:
    def test_cache_capacity_is_an_alias_for_cache_size(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "g.ttl", "--cache-capacity", "64"])
        assert args.cache_size == 64
        args = parser.parse_args(["serve", "g.ttl", "--cache-size", "32"])
        assert args.cache_size == 32

    def test_frontend_accepts_only_asyncio(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["serve", "g.ttl"]).frontend == "asyncio"
        assert parser.parse_args(
            ["serve", "g.ttl", "--frontend", "asyncio"]).frontend == "asyncio"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "g.ttl", "--frontend", "threaded"])
        capsys.readouterr()


class TestServeSignals:
    """``repro serve`` shuts down through its cleanup path on SIGTERM
    and on SIGINT, also when started with SIGINT ignored (what a shell
    does to a background job)."""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_signal_stops_cleanly_and_store_reopens(self, tmp_path,
                                                    turtle_file, signum):
        from repro.db import RDFDatabase

        store = str(tmp_path / "store")
        env = dict(os.environ, PYTHONPATH=str(
            Path(repro.__file__).resolve().parents[1]))
        out_path = tmp_path / "serve.out"
        with open(out_path, "w") as out:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", turtle_file,
                 "--storage-dir", store, "--port", "0"],
                env=env, stdout=out, stderr=subprocess.PIPE,
                preexec_fn=lambda: signal.signal(signal.SIGINT,
                                                 signal.SIG_IGN))
        try:
            deadline = time.monotonic() + 60.0
            line = ""
            while not line.endswith("\n"):
                assert server.poll() is None, server.stderr.read()
                assert time.monotonic() < deadline, "no port line"
                time.sleep(0.02)
                line = out_path.read_text()
            base_url = "http://" + line.split("http://", 1)[1].split()[0]
            update = ("INSERT DATA { <http://example.org/Rex> a "
                      "<http://example.org/Cat> }")
            request = urllib.request.Request(
                base_url + "/update",
                data=urllib.parse.urlencode({"update": update}).encode())
            with urllib.request.urlopen(request, timeout=10.0) as response:
                version = json.loads(response.read())["version"]
            server.send_signal(signum)
            assert server.wait(timeout=10.0) == 0
            assert b"Traceback" not in server.stderr.read()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stderr.close()
        db = RDFDatabase(storage_dir=store)
        try:
            assert db.graph.version == version
            assert db.ask_query("ASK { <http://example.org/Rex> a "
                                "<http://example.org/Mammal> }")
        finally:
            db.close()
