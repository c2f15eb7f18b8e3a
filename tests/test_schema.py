"""Schema loading, validation, and linking features."""

import json

import pytest

from dialsql.schema import (
    SchemaError,
    linking_features,
    load_schemas,
    name_tokens,
    schema_from_dict,
)


class TestLoading:
    def test_cars_fixture(self, cars_schema):
        assert [t.name for t in cars_schema.tables] == ["CARS_DATA", "CAR_NAMES"]
        assert cars_schema.table("cars_data") is not None
        assert cars_schema.table("CARS_DATA").column("horsepower") is not None

    def test_minimal_schema(self):
        s = schema_from_dict({"db_id": "m",
                              "tables": [{"name": "t", "columns": [{"name": "c"}]}]})
        assert s.table("t").column("c").name == "c"
        assert s.foreign_keys == ()

    def test_dangling_foreign_key_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_dict({
                "db_id": "bad",
                "tables": [{"name": "t", "columns": [{"name": "c"}]}],
                "foreign_keys": [["t.c", "t.missing"]],
            })

    def test_duplicate_table_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_dict({
                "db_id": "bad",
                "tables": [{"name": "t", "columns": [{"name": "a"}]},
                           {"name": "T", "columns": [{"name": "b"}]}],
            })

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_dict({
                "db_id": "bad",
                "tables": [{"name": "t", "columns": [{"name": "a"}, {"name": "A"}]}],
            })

    def test_empty_tables_rejected(self):
        with pytest.raises(SchemaError):
            schema_from_dict({"db_id": "bad", "tables": []})
        with pytest.raises(SchemaError):
            schema_from_dict({"db_id": "bad", "tables": [{"name": "t", "columns": []}]})

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"db_id\": \"x\",\n  oops\n}")
        with pytest.raises(SchemaError) as exc:
            load_schemas(path)
        assert "line" in str(exc.value)

    @pytest.mark.parametrize("data, names", [
        ({"db_id": "d", "tables": [1]}, ["schema 'd'", "table 0"]),
        ({"db_id": "d", "tables": [{"columns": [{"name": "c"}]}]}, ["schema 'd'", "table 0"]),
        ({"db_id": "d", "tables": [{"name": 3, "columns": [{"name": "c"}]}]},
         ["schema 'd'", "table 0"]),
        ({"db_id": "d", "tables": [{"name": "t", "columns": [{"type": "text"}]}]},
         ["schema 'd'", "table 't'", "column 0"]),
        ({"db_id": "d", "tables": [{"name": "t", "columns": ["c"]}]},
         ["schema 'd'", "table 't'", "column 0"]),
        ({"db_id": "d", "tables": [{"name": "t", "columns": [{"name": "c"}]}],
          "foreign_keys": [5]}, ["schema 'd'", "foreign_keys pair 0"]),
        ({"db_id": "d", "tables": [{"name": "t", "columns": [{"name": "c"}]}],
          "foreign_keys": [[1, "t.c"]]}, ["schema 'd'", "endpoint"]),
        ({"db_id": ["d"], "tables": [{"name": "t", "columns": [{"name": "c"}]}]}, ["db_id"]),
        ([1], ["entry 0", "expected an object"]),
        ({"db_id": "d", "tables": [{"name": "t", "columns": [{"name": "c"}]},
                                   {"name": "T", "columns": [{"name": "c"}]}]},
         ["d: duplicate table name 'T'"]),
        ({"db_id": "d", "tables": [{"name": "t", "columns": [{"name": "c"}]}],
          "foreign_keys": [["t.c", "u.c"]]}, ["d: foreign key references missing table 'u'"]),
    ])
    def test_malformed_schema_names_file_schema_and_table(self, tmp_path, data, names):
        path = tmp_path / "schemas.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as exc:
            load_schemas(path)
        for name in [str(path), *names]:
            assert name in str(exc.value)

    def test_load_schemas_list(self, tmp_path):
        path = tmp_path / "schemas.json"
        path.write_text(json.dumps([
            {"db_id": "a", "tables": [{"name": "t", "columns": [{"name": "c"}]}]},
            {"db_id": "b", "tables": [{"name": "u", "columns": [{"name": "d"}]}]},
        ]))
        schemas = load_schemas(path)
        assert set(schemas) == {"a", "b"}

    def test_roundtrip_through_dict(self, cars_schema):
        again = schema_from_dict(cars_schema.to_dict())
        assert again.to_dict() == cars_schema.to_dict()


class TestLinkingFeatures:
    def test_exact_match(self):
        assert linking_features("id", "Id") == (1, 0)
        assert linking_features("car_names", "CAR_NAMES") == (1, 0)

    def test_partial_match_multiword_only(self):
        assert linking_features("car", "CAR_NAMES") == (0, 1)
        assert linking_features("names", "CAR_NAMES") == (0, 1)
        # single-word names never fire partial
        assert linking_features("horse", "Horsepower") == (0, 0)

    def test_no_match(self):
        assert linking_features("the", "Horsepower") == (0, 0)

    def test_exact_excludes_partial(self):
        for token in ("id", "car", "car_names", "none"):
            exact, partial = linking_features(token, "CAR_NAMES")
            assert not (exact and partial)

    def test_name_tokens(self):
        assert name_tokens("CAR_NAMES") == ["car", "names"]
        assert name_tokens("Horsepower") == ["horsepower"]
        assert name_tokens("a__b") == ["a", "b"]
